"""Reference values computed straight from raw model documents.

Nothing here imports cegkit: effects come from enumerating the root-to-leaf
paths of the JSON document itself, so a report that agrees with them is
checked against an independent computation, not against itself.
"""

from __future__ import annotations

import math

TOLERANCE = 1e-12


def _children(doc: dict) -> tuple[str, dict]:
    children: dict[str, list[dict]] = {}
    dsts = set()
    for e in doc["edges"]:
        children.setdefault(e["src"], []).append(e)
        dsts.add(e["dst"])
    root = next(v for v in doc["vertices"] if v not in dsts)
    return root, children


def _masses(doc: dict, star, override, target) -> tuple[float, float]:
    """(target mass, total mass) over the paths through ``star``.

    With an empty ``star`` every path counts.  ``override`` replaces the
    transition vector of the listed vertices.
    """
    root, children = _children(doc)
    star = set(star)
    hits: list[float] = []
    weights: list[float] = []
    stack = [(root, 1.0, not star, False)]
    while stack:
        v, prob, through, hit = stack.pop()
        out = children.get(v)
        if not out:
            if through:
                weights.append(prob)
                if hit:
                    hits.append(prob)
            continue
        vec = override.get(v) or doc["theta"][v]
        for e, p in zip(out, vec):
            stack.append(
                (e["dst"], prob * p, through or v in star, hit or e["devent"] == target)
            )
    return math.fsum(hits), math.fsum(weights)


def substitution_effect(doc: dict, star_vertices, theta_hat: dict, target: str) -> float:
    """Target probability after replacing the vectors of ``star_vertices``,
    normalized over the paths through them."""
    num, den = _masses(doc, star_vertices, theta_hat, target)
    return num / den


def idle_effect(doc: dict, target: str) -> float:
    """Target probability with no intervention."""
    num, _ = _masses(doc, (), {}, target)
    return num


def close(a: float, b: float, tol: float = TOLERANCE) -> bool:
    return abs(a - b) <= tol
