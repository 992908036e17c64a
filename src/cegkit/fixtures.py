"""Built-in example models.

Four models ship with the package:

* ``bushing``: transformer bushing failure, six root causes behind an
  endogenous/exogenous split, symptom layer, failure indicator.  Colour
  structure makes the oil-leak style symptoms share one probability and
  their complements the other.
* ``conservator``: conservator tank failure, two fault classes at the root,
  oil-level symptom layer, alarm layer, two distinct terminal florets.
* ``twin``: synthetic two-site model whose two root-cause florets stay
  separate positions; exercises interventions on more than one position.
* ``bushing_broken``: the bushing structure with every downstream colour
  equality perturbed; the negative control for the back-door machinery.

Theta values are choices of this repository, not measurements.  The
``*_theta`` helpers return each model's vectors; ``bushing_theta(seed)``
draws fresh colour-respecting values from a seed instead.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Mapping, Optional

from .event_tree import DEvent, Edge
from .model_io import ModelDocument

__all__ = [
    "bushing_document",
    "bushing_theta",
    "conservator_document",
    "conservator_theta",
    "twin_document",
    "twin_theta",
    "bushing_broken_document",
    "all_documents",
]


def _doc(name, devents, edge_rows, terminals, theta, stages, root_causes):
    """Assemble a ModelDocument from terse tables.

    ``edge_rows`` lists internal edges (src, dst, devent); ``terminals``
    lists situations that get a failed and an operational leaf via the
    ``fail``/``no_fail`` d-events.
    """
    edges = [Edge(src=s, dst=d, devent=x) for s, d, x in edge_rows]
    vertices = []
    for e in edges:
        for v in (e.src, e.dst):
            if v not in vertices:
                vertices.append(v)
    leaf_status = {}
    for v in terminals:
        edges.append(Edge(src=v, dst=f"{v}f", devent="fail"))
        edges.append(Edge(src=v, dst=f"{v}n", devent="no_fail"))
        vertices.extend([f"{v}f", f"{v}n"])
        leaf_status[f"{v}f"] = "failed"
        leaf_status[f"{v}n"] = "operational"
    return ModelDocument(
        name=name,
        devents=tuple(DEvent(id=i, text=t) for i, t in devents),
        vertices=tuple(vertices),
        edges=tuple(edges),
        leaf_status=leaf_status,
        theta={v: tuple(vec) for v, vec in theta.items()},
        stages=tuple(tuple(b) for b in stages),
        root_causes=tuple(root_causes),
    )


# -- bushing ----------------------------------------------------------------

_BUSHING_DEVENTS = (
    ("endogenous", "endogenous cause"),
    ("exogenous", "exogenous cause"),
    ("gasket", "gasket failure"),
    ("porcelain", "porcelain crack"),
    ("insulator", "insulator degradation"),
    ("other_internal", "other internal cause"),
    ("lightning", "lightning or other external cause"),
    ("corrosive_sulphur", "corrosive sulphur"),
    ("oil_leak", "oil leak"),
    ("no_leak", "no oil leak"),
    ("oil_loss", "loss of oil"),
    ("oil_mix", "mix of oil"),
    ("thermal", "thermal anomaly"),
    ("electrical", "electrical anomaly"),
    ("fail", "fails within a year"),
    ("no_fail", "does not fail within a year"),
)

_BUSHING_EDGES = (
    ("v0", "v1", "endogenous"),
    ("v0", "v2", "exogenous"),
    ("v1", "v3", "gasket"),
    ("v1", "v4", "porcelain"),
    ("v1", "v5", "insulator"),
    ("v1", "v6", "other_internal"),
    ("v2", "v7", "lightning"),
    ("v2", "v8", "corrosive_sulphur"),
    ("v3", "v9", "oil_leak"),
    ("v3", "v10", "no_leak"),
    ("v4", "v11", "oil_leak"),
    ("v4", "v12", "no_leak"),
    ("v5", "v13", "oil_loss"),
    ("v5", "v14", "oil_mix"),
    ("v6", "v15", "thermal"),
    ("v6", "v16", "electrical"),
)

_BUSHING_TERMINALS = tuple(f"v{i}" for i in range(7, 17))

_BUSHING_STAGES = (
    ("v3", "v4"),
    ("v7", "v8", "v13", "v14", "v15", "v16"),
    ("v9", "v11"),
    ("v10", "v12"),
)

_BUSHING_ROOT_CAUSES = (
    "gasket",
    "porcelain",
    "insulator",
    "other_internal",
    "lightning",
    "corrosive_sulphur",
)


def bushing_theta(seed: Optional[int] = None) -> dict[str, tuple[float, ...]]:
    """Colour-respecting transition vectors for the bushing model.

    The oil-leak style symptom edges (oil_leak, oil_loss, thermal) share one
    value across their three florets; the three failure stages each carry
    their own vector, shared by every member.
    """
    if seed is None:
        root = (0.7, 0.3)
        internal = (0.3, 0.2, 0.25, 0.25)
        external = (0.6, 0.4)
        red = 0.55
        fails = {"leak": 0.8, "clear": 0.3, "late": 0.62}
    else:
        rng = random.Random(seed)

        def interior():
            return rng.uniform(0.1, 0.9)

        raw = [rng.uniform(0.2, 1.0) for _ in range(4)]
        internal = tuple(x / sum(raw) for x in raw)
        root = (p := interior(), 1.0 - p)
        external = (p := interior(), 1.0 - p)
        red = interior()
        fails = {"leak": interior(), "clear": interior(), "late": interior()}
        while len(set(fails.values())) < 3:
            fails = {k: interior() for k in fails}
    symptom = (red, 1.0 - red)
    theta = {
        "v0": root,
        "v1": internal,
        "v2": external,
        "v3": symptom,
        "v4": symptom,
        "v5": symptom,
        "v6": symptom,
    }
    for v in ("v9", "v11"):
        theta[v] = (fails["leak"], 1.0 - fails["leak"])
    for v in ("v10", "v12"):
        theta[v] = (fails["clear"], 1.0 - fails["clear"])
    for v in ("v7", "v8", "v13", "v14", "v15", "v16"):
        theta[v] = (fails["late"], 1.0 - fails["late"])
    return theta


def bushing_document(theta: Optional[Mapping] = None) -> ModelDocument:
    return _doc(
        "bushing",
        _BUSHING_DEVENTS,
        _BUSHING_EDGES,
        _BUSHING_TERMINALS,
        theta or bushing_theta(),
        _BUSHING_STAGES,
        _BUSHING_ROOT_CAUSES,
    )


def bushing_broken_document() -> ModelDocument:
    """Bushing structure with every downstream colour equality broken.

    Stage structure within florets still holds (v3/v4 etc. keep shared
    vectors) but no symptom value is shared across florets, so the symptom
    grouping no longer screens the causes off the failure indicator.
    """
    theta = bushing_theta()
    theta["v5"] = (0.7, 0.3)
    theta["v6"] = (0.35, 0.65)
    return replace(bushing_document(theta), name="bushing_broken")


# -- conservator ------------------------------------------------------------

_CONSERVATOR_DEVENTS = (
    ("ind_fault", "oil indicator or contact fault"),
    ("other_fault", "other fault"),
    ("leak_low", "oil leak and low oil level"),
    ("other_symptom", "other symptom"),
    ("buchholz_drycol", "buchholz and drycol alarm"),
    ("other_alarm", "other alarm"),
    ("fail", "fails within a year"),
    ("no_fail", "does not fail within a year"),
)

_CONSERVATOR_EDGES = (
    ("v0", "v1", "ind_fault"),
    ("v0", "v2", "other_fault"),
    ("v1", "v3", "leak_low"),
    ("v1", "v4", "other_symptom"),
    ("v2", "v5", "leak_low"),
    ("v2", "v6", "other_symptom"),
    ("v3", "v7", "buchholz_drycol"),
    ("v3", "v8", "other_alarm"),
    ("v4", "v9", "buchholz_drycol"),
    ("v4", "v10", "other_alarm"),
    ("v5", "v11", "buchholz_drycol"),
    ("v5", "v12", "other_alarm"),
    ("v6", "v13", "buchholz_drycol"),
    ("v6", "v14", "other_alarm"),
)

_CONSERVATOR_TERMINALS = tuple(f"v{i}" for i in range(7, 15))

_CONSERVATOR_STAGES = (
    ("v1", "v2"),
    ("v3", "v5"),
    ("v4", "v6"),
    ("v7", "v9", "v10"),
    ("v8", "v11", "v12", "v13", "v14"),
)

_CONSERVATOR_ROOT_CAUSES = ("ind_fault", "other_fault")


def conservator_theta() -> dict[str, tuple[float, ...]]:
    values = {"root": 0.65, "leak": 0.3, "alarm_a": 0.6, "alarm_b": 0.45,
              "fail_a": 0.7, "fail_b": 0.25}
    pair = lambda p: (p, 1.0 - p)
    theta = {
        "v0": pair(values["root"]),
        "v1": pair(values["leak"]),
        "v2": pair(values["leak"]),
        "v3": pair(values["alarm_a"]),
        "v5": pair(values["alarm_a"]),
        "v4": pair(values["alarm_b"]),
        "v6": pair(values["alarm_b"]),
    }
    for v in ("v7", "v9", "v10"):
        theta[v] = pair(values["fail_a"])
    for v in ("v8", "v11", "v12", "v13", "v14"):
        theta[v] = pair(values["fail_b"])
    return theta


def conservator_document(theta: Optional[Mapping] = None) -> ModelDocument:
    return _doc(
        "conservator",
        _CONSERVATOR_DEVENTS,
        _CONSERVATOR_EDGES,
        _CONSERVATOR_TERMINALS,
        theta or conservator_theta(),
        _CONSERVATOR_STAGES,
        _CONSERVATOR_ROOT_CAUSES,
    )


# -- twin -------------------------------------------------------------------

_TWIN_DEVENTS = (
    ("site_a", "installed at site a"),
    ("site_b", "installed at site b"),
    ("seal_wear", "seal wear"),
    ("contamination", "contamination"),
    ("leak", "lubricant leak"),
    ("dry", "running dry"),
    ("overheat", "overheating"),
    ("temp_normal", "temperature normal"),
    ("fail", "fails within a year"),
    ("no_fail", "does not fail within a year"),
)

_TWIN_EDGES = (
    ("v0", "v1", "site_a"),
    ("v0", "v2", "site_b"),
    ("v1", "v3", "seal_wear"),
    ("v1", "v4", "contamination"),
    ("v2", "v5", "seal_wear"),
    ("v2", "v6", "contamination"),
    ("v3", "v7", "leak"),
    ("v3", "v8", "dry"),
    ("v4", "v9", "overheat"),
    ("v4", "v10", "temp_normal"),
    ("v5", "v11", "leak"),
    ("v5", "v12", "dry"),
    ("v6", "v13", "overheat"),
    ("v6", "v14", "temp_normal"),
)

_TWIN_TERMINALS = tuple(f"v{i}" for i in range(7, 15))

_TWIN_STAGES = (
    ("v3", "v5"),
    ("v4", "v6"),
    ("v7", "v11"),
    ("v8", "v12"),
    ("v9", "v13"),
    ("v10", "v14"),
)

_TWIN_ROOT_CAUSES = ("seal_wear", "contamination")


def twin_theta() -> dict[str, tuple[float, ...]]:
    """Cross-site symmetric vectors: the two cause florets differ (so the
    sites stay separate positions) while each symptom and failure stage is
    shared across sites, and the leak/overheat probability is one shared
    colour value."""
    values = {"root": 0.55, "cause_a": 0.35, "cause_b": 0.6, "red": 0.4,
              "fail_pr": 0.75, "fail_pg": 0.3, "fail_qr": 0.5, "fail_qg": 0.15}
    pair = lambda p: (p, 1.0 - p)
    theta = {
        "v0": pair(values["root"]),
        "v1": pair(values["cause_a"]),
        "v2": pair(values["cause_b"]),
        "v3": pair(values["red"]),
        "v5": pair(values["red"]),
        "v4": pair(values["red"]),
        "v6": pair(values["red"]),
    }
    for v, key in (("v7", "fail_pr"), ("v11", "fail_pr"),
                   ("v8", "fail_pg"), ("v12", "fail_pg"),
                   ("v9", "fail_qr"), ("v13", "fail_qr"),
                   ("v10", "fail_qg"), ("v14", "fail_qg")):
        theta[v] = pair(values[key])
    return theta


def twin_document(theta: Optional[Mapping] = None) -> ModelDocument:
    return _doc(
        "twin",
        _TWIN_DEVENTS,
        _TWIN_EDGES,
        _TWIN_TERMINALS,
        theta or twin_theta(),
        _TWIN_STAGES,
        _TWIN_ROOT_CAUSES,
    )


def all_documents() -> dict[str, ModelDocument]:
    return {
        "bushing": bushing_document(),
        "conservator": conservator_document(),
        "twin": twin_document(),
        "bushing_broken": bushing_broken_document(),
    }
