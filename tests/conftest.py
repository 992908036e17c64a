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
    passes), of ``idle_target_mass``, of ``validate_stochastic``, of
    ``_verdict`` (the back-door step of a query and of ``check-backdoor``), of ``vectors_valid`` (bulk vector checks) and of
    ``compute_positions`` from here on, counted through every module
    binding of each; and ``Ceg`` and ``DirichletFloretPrior``
    constructions under their class names.  A
    ``Ceg`` is counted where its derived fields are set, so graphs from
    ``build_ceg`` count as well as checked ones, copies by
    ``dataclasses.replace`` included."""
    from cegkit import causal, ceg, event_tree, intervention, staging

    counts: Counter = Counter()
    for cls, method in ((ceg.Ceg, "_link"), (intervention.DirichletFloretPrior, "__post_init__")):

        def constructed(obj, *args, _name=cls.__name__, _original=getattr(cls, method)):
            counts[_name] += 1
            return _original(obj, *args)

        monkeypatch.setattr(cls, method, constructed)
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("cegkit")]
    for home, name in (
        (ceg, "forward_messages"),
        (ceg, "backward_messages"),
        (causal, "idle_target_mass"),
        (intervention, "validate_stochastic"),
        (causal, "_verdict"),
        (event_tree, "vectors_valid"),
        (staging, "compute_positions"),
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
