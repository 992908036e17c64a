import sys
from collections import Counter
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


@pytest.fixture()
def work(monkeypatch) -> Counter:
    """Calls of ``forward_messages`` and ``backward_messages`` (kernel
    passes), of ``idle_target_mass``, of ``validate_stochastic`` and of
    ``backdoor_verdict`` from here on, counted through every module binding
    of each; and ``Ceg`` and ``DirichletFloretPrior`` constructions, copies
    by ``dataclasses.replace`` included, under their class names."""
    from cegkit import causal, ceg, intervention

    counts: Counter = Counter()
    for cls in (ceg.Ceg, intervention.DirichletFloretPrior):

        def constructed(obj, _name=cls.__name__, _checks=cls.__post_init__):
            counts[_name] += 1
            return _checks(obj)

        monkeypatch.setattr(cls, "__post_init__", constructed)
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("cegkit")]
    for home, name in (
        (ceg, "forward_messages"),
        (ceg, "backward_messages"),
        (causal, "idle_target_mass"),
        (intervention, "validate_stochastic"),
        (causal, "backdoor_verdict"),
    ):
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts
