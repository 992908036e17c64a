"""Random probability trees for the property tests.

    from random_trees import random_tree_document

Depth at most 6 and branching at most 4, with terminal florets over the
``fail``/``no_fail`` d-events, so every tree is a valid model document.
``model_payload`` and ``declared_stages`` turn one into JSON-ready model
documents that list siblings in shuffled orders or declare stages.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from typing import Iterable, Optional

from cegkit import model_io
from cegkit.event_tree import DEvent, Edge
from cegkit.model_io import ModelDocument


def random_tree_document(seed: int, repeat_devents: bool = False) -> ModelDocument:
    """A random probability tree, depth at most 6, branching at most 4.

    Half of the trees draw transition vectors from a small pool so stages
    and positions actually merge; the rest use fresh draws, which keeps
    every stage a singleton almost surely.

    With ``repeat_devents`` the siblings below a situation pair up on
    d-events (``act_dK_0`` twice, then ``act_dK_1`` once or twice, at
    depth K), half of the terminal florets end in two ``fail`` leaves and
    one ``no_fail`` leaf, so failed and operational leaves differ in
    number, and half of the vectors with tied entries swap the first two,
    so one stage can hold florets whose vectors differ only in the order
    of tied entries.
    """
    rng = random.Random(seed)
    max_depth = rng.choices((2, 3, 4, 5, 6), weights=(20, 30, 25, 15, 10))[0]
    pooled = rng.random() < 0.5
    pool: dict[int, list[tuple[float, ...]]] = {}

    def draw_vector(k: int) -> tuple[float, ...]:
        if pooled:
            options = pool.setdefault(k, [])
            if options and rng.random() < 0.6:
                return rng.choice(options)
            raw = [rng.uniform(0.2, 1.0) for _ in range(k)]
            vec = tuple(x / sum(raw) for x in raw)
            options.append(vec)
            return vec
        raw = [rng.uniform(0.2, 1.0) for _ in range(k)]
        return tuple(x / sum(raw) for x in raw)

    vertices = ["v0"]
    edges: list[Edge] = []
    leaf_status: dict[str, str] = {}
    theta: dict[str, tuple[float, ...]] = {}
    devents = {"fail": "fails", "no_fail": "does not fail"}
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"v{counter[0]}"

    def swap_ties(v: str) -> None:
        if rng.random() < 0.5:
            theta[v] = (theta[v][1], theta[v][0], *theta[v][2:])

    def grow(v: str, depth: int):
        terminal = depth >= max_depth - 1 or rng.random() < 0.35
        if terminal:
            outcomes = (("fail", "failed"), ("no_fail", "operational"))
            if repeat_devents and rng.random() < 0.5:
                outcomes = (("fail", "failed"), *outcomes)
            for devent, status in outcomes:
                leaf = fresh()
                vertices.append(leaf)
                edges.append(Edge(src=v, dst=leaf, devent=devent))
                leaf_status[leaf] = status
            theta[v] = draw_vector(len(outcomes))
            if len(outcomes) > 2:
                swap_ties(v)
            return
        width = rng.choices((2, 3, 4), weights=(50, 30, 20))[0]
        theta[v] = draw_vector(width)
        labels = range(width)
        if repeat_devents:
            labels = [i // 2 for i in labels]
            swap_ties(v)
        for i in labels:
            devent = f"act_d{depth}_{i}"
            devents.setdefault(devent, f"option {i} at depth {depth}")
            child = fresh()
            vertices.append(child)
            edges.append(Edge(src=v, dst=child, devent=devent))
            grow(child, depth + 1)

    grow("v0", 0)
    return ModelDocument(
        name=f"random_{seed}",
        devents=tuple(DEvent(id=i, text=t) for i, t in devents.items()),
        vertices=tuple(vertices),
        edges=tuple(edges),
        leaf_status=leaf_status,
        theta=theta,
        stages=None,
        root_causes=(),
    )


def model_payload(doc: ModelDocument, rng: Optional[random.Random] = None) -> dict:
    """``doc`` as a JSON-ready model document.  With ``rng``, each floret
    lists its edges, and its vector entries with them, in a shuffled order
    half of the time: the same model up to the order of siblings."""
    payload = json.loads(model_io.dumps(doc))
    if rng is None:
        return payload
    edges, theta = payload["edges"], payload["theta"]
    slots = defaultdict(list)
    for i, e in enumerate(edges):
        slots[e["src"]].append(i)
    for v, at in slots.items():
        if rng.random() < 0.5:
            perm = list(range(len(at)))
            rng.shuffle(perm)
            florets = [edges[i] for i in at]
            for i, j in zip(at, perm):
                edges[i] = florets[j]
            theta[v] = [theta[v][j] for j in perm]
    return payload


def declared_stages(
    payload: dict, blocks: Iterable[Iterable[str]], rng: random.Random
) -> list[list[str]]:
    """A ``stages`` section declaring each block of ``blocks`` with more than
    one member seven times in ten, its members in a shuffled order."""
    order = {v: i for i, v in enumerate(payload["vertices"])}
    listed = sorted((sorted(b, key=order.__getitem__) for b in blocks), key=lambda b: order[b[0]])
    declared = []
    for block in listed:
        if len(block) > 1 and rng.random() < 0.7:
            rng.shuffle(block)
            declared.append(block)
    return declared
