"""Deterministic size-ladder model documents in two families.

Every ladder tree is layered: each situation in layers ``0 .. depth-1``
has ``width`` children, each situation in layer ``depth`` ends in a
``fail`` leaf and a ``no_fail`` leaf.  Edges in layer ``k`` carry the
d-events ``L{k}_0 .. L{k}_{width-1}``.

* ``merged``: every situation of a layer carries the same transition
  vector, so each layer is one stage and one position.  Few positions,
  exponentially many root-to-sink paths.
* ``fresh``: every situation carries its own vector (first components
  are spaced apart by construction, far beyond any tolerance), so every
  stage and every position is a singleton.

Documents are plain JSON-ready dicts in the cegkit model format, built
iteratively from a seed; :func:`expected_counts` gives the closed-form
structure a ``ceg build`` report must show.
"""

from __future__ import annotations

import random

FAMILIES = ("merged", "fresh")


def interior_vector(rng: random.Random, k: int, floor: float = 0.05) -> list[float]:
    """A length-k vector inside the open unit simplex, each entry >= floor."""
    raw = [rng.uniform(1.0, 3.0) for _ in range(k)]
    total = sum(raw)
    spare = 1.0 - floor * k
    vec = [floor + spare * x / total for x in raw]
    vec[-1] = 1.0 - sum(vec[:-1])
    return vec


def _fresh_vector(rng: random.Random, k: int, index: int, count: int) -> list[float]:
    """Vector whose first entry is unique to ``index`` among ``count``."""
    first = 0.2 + 0.5 * (index + rng.uniform(0.25, 0.75)) / count
    if k == 2:
        return [first, 1.0 - first]
    rest = interior_vector(rng, k - 1)
    vec = [first] + [(1.0 - first) * x for x in rest]
    vec[-1] = 1.0 - sum(vec[:-1])
    return vec


def layer_devents(depth: int, width: int, layer: int) -> list[str]:
    """D-events on the edges leaving situations of one layer."""
    if layer == depth:
        return ["fail", "no_fail"]
    return [f"L{layer}_{j}" for j in range(width)]


def ladder_document(
    family: str, depth: int, width: int, seed: int, declare_stages: bool = False
) -> dict:
    """Model document of one ladder rung.

    With ``declare_stages`` the document lists every layer as a stage
    (merged family only), so the program validates instead of inferring.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if depth < 1 or width < 2:
        raise ValueError("ladder needs depth >= 1 and width >= 2")
    if declare_stages and family != "merged":
        raise ValueError("only the merged family has non-trivial declared stages")
    rng = random.Random(f"{family}:{depth}:{width}:{seed}")
    situations = sum(width**k for k in range(depth + 1))
    layer_theta = [interior_vector(rng, width) for _ in range(depth)] + [interior_vector(rng, 2)]

    vertices = ["v0"]
    edges = []
    theta = {}
    leaf_status = {}
    layers = [["v0"]]
    for k in range(depth + 1):
        nxt = []
        for v in layers[k]:
            index = len(theta)
            devents = layer_devents(depth, width, k)
            statuses = [None] * width if k < depth else ["failed", "operational"]
            if family == "merged":
                theta[v] = list(layer_theta[k])
            else:
                theta[v] = _fresh_vector(rng, len(devents), index, situations)
            for devent, status in zip(devents, statuses):
                child = f"v{len(vertices)}"
                vertices.append(child)
                edges.append({"src": v, "dst": child, "devent": devent})
                if status is None:
                    nxt.append(child)
                else:
                    leaf_status[child] = status
        if k < depth:
            layers.append(nxt)

    doc = {
        "name": f"{family}_d{depth}_w{width}",
        "devents": [
            {"id": d, "text": d} for k in range(depth + 1) for d in layer_devents(depth, width, k)
        ],
        "vertices": vertices,
        "edges": edges,
        "leaf_status": leaf_status,
        "theta": theta,
    }
    if declare_stages:
        doc["stages"] = layers
    return doc


def expected_counts(family: str, depth: int, width: int) -> dict:
    """Closed-form structure of a ladder rung, keyed as in ``ceg build``."""
    situations = sum(width**k for k in range(depth + 1))
    leaves = 2 * width**depth
    vertices = situations + leaves
    if family == "merged":
        positions = depth + 1
        edges = depth * width + 2
    else:
        positions = situations
        edges = vertices - 1
    return {
        "vertices": vertices,
        "situations": situations,
        "devents": depth * width + 2,
        "positions": positions,
        "sinks": 2,
        "edges": edges,
        "root_to_sink_paths": leaves,
        "failed_paths": width**depth,
        "fine_cut_root": "YES",
    }


def layer_members(depth: int, width: int) -> list[list[str]]:
    """Vertex ids of each situation layer (ids follow breadth-first order)."""
    out = []
    start = 0
    for k in range(depth + 1):
        size = width**k
        out.append([f"v{start + i}" for i in range(size)])
        start += size
    return out
