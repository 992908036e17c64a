import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def walks(monkeypatch) -> list:
    """The w* of every ``check_separate`` call from here on, recorded
    through every module binding of the function."""
    from cegkit import causal, intervention

    calls = []
    walk = intervention.check_separate

    def counted(ceg, w_star):
        calls.append(tuple(w_star))
        return walk(ceg, w_star)

    for module in (intervention, causal):
        monkeypatch.setattr(module, "check_separate", counted)
    return calls
