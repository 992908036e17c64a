"""Stage and position structure on a probability tree.

Two situations share a stage when their florets carry the same multiset of
d-events and matched edges (same d-event) carry transition probabilities
equal within the tolerance, closed transitively.  Positions refine stages:
situations whose coloured subtrees are isomorphic.  Both partitions are
deterministic and carry stable ids (``u0, u1, ...`` and ``w0, w1, ...``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import DanglingEdge, ParseError
from .event_tree import _DEVENT, EventTree, LeafStatus, ProbabilityTree

CanonicalForm = tuple


@dataclass(frozen=True)
class StagePartition:
    """Blocks over situations, each a tuple of its members in breadth-first
    order, numbered breadth-first by first member."""

    blocks: tuple[tuple[str, ...], ...]
    ids: tuple[str, ...] = field(init=False, default=())
    _index: Mapping[str, int] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        blocks = self.blocks
        if not all(blocks):
            raise ParseError("stage partition has an empty block")
        index = {v: i for i, block in enumerate(blocks) for v in block}
        if len(index) < sum(map(len, blocks)):
            seen = set()  # name the first member listed twice
            for v in chain.from_iterable(blocks):
                if v in seen:
                    raise ParseError(f"situation {v} appears in two stages")
                seen.add(v)
        object.__setattr__(self, "ids", tuple(f"u{i}" for i in range(len(blocks))))
        object.__setattr__(self, "_index", index)

    def stage_id(self, v: str) -> str:
        return self.ids[self._index[v]]


@dataclass(frozen=True)
class StagedTree:
    ptree: ProbabilityTree
    stages: StagePartition


@dataclass(frozen=True)
class PositionPartition:
    """Blocks over situations, each a tuple of its members in breadth-first
    order, with ids assigned so that a position always comes after every
    position holding a breadth-first-earlier last member (colex order on
    member index sets)."""

    blocks: tuple[tuple[str, ...], ...]
    ids: tuple[str, ...]
    stage_of: tuple[int, ...]  # stage index per position


def _floret_key(ptree: ProbabilityTree, v: str) -> tuple[tuple, tuple]:
    """Shape (the sorted d-event multiset) and values (each d-event's
    probabilities sorted, laid out in shape order) of a floret: the two
    halves of its (d-event, probability) pairs in sorted order."""
    devents = [e.devent for e in ptree.tree._out[v]]
    return tuple(zip(*sorted(zip(devents, ptree.theta[v]))))


def _same_floret(ku: tuple, kv: tuple, tol: float) -> bool:
    if ku == kv:
        return True
    return ku[0] == kv[0] and not any(abs(a - b) > tol for a, b in zip(ku[1], kv[1]))


def tolerance_classes(keys: Sequence[tuple], tol: float) -> list[int]:
    """For each of the distinct (shape, values) ``keys``, the index of the
    least key of its class: the transitive closure of "same shape, every
    value within ``tol``".

    One sweep over the sorted keys compares each only with the successors
    of its shape whose first value lies within ``tol`` (every related pair
    does); matches are merged by union-find.  A sweep that merges nothing
    returns the identity.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ordered = list(map(keys.__getitem__, order))
    n = len(ordered)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    merged = False
    for i, (shape, values) in enumerate(ordered):
        j = i + 1
        while j < n and ordered[j][0] == shape and ordered[j][1][0] - values[0] <= tol:
            if _same_floret(ordered[i], ordered[j], tol):
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
                merged = True
            j += 1
    if not merged:  # every key is the least of its own class
        return parent
    # each key's place in the sorted order is the inverse permutation
    return [order[find(j)] for j in sorted(range(n), key=order.__getitem__)]


def _layout(devents: tuple) -> tuple:
    """The shape of florets with this d-event sequence and a getter laying
    a vector out in shape order, or ``(None, None)`` when a d-event repeats:
    such a floret's ties are ordered by value (``_floret_key``)."""
    if len(set(devents)) < len(devents):
        return None, None
    order = sorted(range(len(devents)), key=devents.__getitem__)
    shape = tuple(map(devents.__getitem__, order))
    # itemgetter(0) would unwrap a one-edge floret's vector, not copy it
    return shape, itemgetter(*order) if len(order) > 1 else tuple


def compute_stages(ptree: ProbabilityTree) -> StagePartition:
    """Infer the stage partition from theta: floret keys of one shape with
    values within the tree's tolerance, closed transitively
    (``tolerance_classes``).  Florets with one d-event sequence share one
    layout, so each key is one permutation of its vector.  When every key
    is distinct and none merges, every situation is its own stage."""
    out, theta = ptree.tree._out, ptree.theta
    layouts: dict[tuple, tuple] = {}  # d-event sequence -> _layout
    number: dict[tuple, int] = {}  # each key hashed once, numbered as first met
    numbers = []
    for v in ptree.tree.situations:
        devents = tuple(map(_DEVENT, out[v]))
        shape, get = layouts.get(devents) or layouts.setdefault(devents, _layout(devents))
        key = _floret_key(ptree, v) if shape is None else (shape, get(theta[v]))
        numbers.append(number.setdefault(key, len(number)))
    least = tolerance_classes(list(number), ptree.tolerance)
    if least == numbers:  # every key distinct and nothing merged
        return StagePartition(blocks=tuple(zip(ptree.tree.situations)))
    # situations come breadth-first, so blocks are numbered by first member
    # and list their members breadth-first
    blocks: dict[int, list[str]] = {}
    for v, i in zip(ptree.tree.situations, numbers):
        blocks.setdefault(least[i], []).append(v)
    return StagePartition(blocks=tuple(map(tuple, blocks.values())))


def declared_stages(
    ptree: ProbabilityTree, declared: Sequence[Sequence[str]]
) -> StagePartition:
    """Validate an explicitly declared stage structure.

    Situations not listed become singleton stages.  Every declared block must
    satisfy the stage conditions; declared blocks need not be maximal.
    """
    situations = set(ptree.tree.situations)
    bfs = ptree.tree._bfs_index.__getitem__
    seen: set[str] = set()
    blocks: list[tuple[str, ...]] = []
    for block in declared:
        members = dict.fromkeys(block)  # a set in document order
        unknown = members.keys() - situations
        if unknown:
            raise ParseError(f"declared stage names non-situations: {sorted(unknown)}")
        if not members:
            raise ParseError("declared stage is empty")
        if members.keys() & seen:
            raise ParseError("declared stages overlap")
        # members with the first member's d-event sequence and vector have
        # its floret key too; keys are built only when some member differs
        vecs = list(map(ptree.theta.__getitem__, members))
        florets = chain.from_iterable(map(ptree.tree._out.__getitem__, members))
        devents = list(map(_DEVENT, florets))
        shape = devents[: len(vecs[0])] * len(vecs)
        if vecs.count(vecs[0]) < len(vecs) or devents != shape:
            keys = [_floret_key(ptree, v) for v in members]
            for v, key in zip(members, keys):  # the first member represents the block
                if not _same_floret(keys[0], key, ptree.tolerance):
                    raise ParseError(
                        f"declared stage {sorted(members)} violates the stage"
                        f" conditions at {v}"
                    )
        seen.update(members)
        blocks.append(tuple(sorted(members, key=bfs)))
    # blocks in breadth-first order of their first members; a situation no
    # block lists is a singleton
    heads = {block[0]: block for block in blocks}
    listed = (heads.get(v, () if v in seen else (v,)) for v in ptree.tree.situations)
    return StagePartition(blocks=tuple(filter(None, listed)))


def staged_tree_from_document(doc, ptree: ProbabilityTree) -> StagedTree:
    """The tree ``ptree`` built from ``doc``, staged as ``doc`` declares or,
    without declared stages, by inference."""
    if getattr(doc, "stages", None) is not None:
        stages = declared_stages(ptree, doc.stages)
    else:
        stages = compute_stages(ptree)
    return StagedTree(ptree=ptree, stages=stages)


def _canonical_forms(staged: StagedTree) -> dict[str, int]:
    """Bottom-up canonical form id of every subtree.

    Forms are hash-consed: every distinct (stage, sorted multiset of
    (d-event, child form)) structure gets one integer id, so equal ids hold
    exactly when the coloured subtrees are isomorphic.  Leaf statuses are
    part of the structure.  A situation alone in its stage is keyed by its
    stage index alone, so its structure is not built.
    """
    tree = staged.ptree.tree
    out = tree._out
    stage, blocks = staged.stages._index, staged.stages.blocks
    # the two leaf forms; every situation form is a table index, from 0
    forms = {
        v: -1 if status is LeafStatus.FAILED else -2
        for v, status in tree.leaf_status.items()
    }
    table: dict[CanonicalForm | int, int] = {}
    for v in reversed(tree.situations):
        s = stage[v]
        if len(blocks[s]) == 1:  # no other situation has its stage, so its form
            key = s
        else:
            pairs = [(e.devent, forms[e.dst]) for e in out[v]]
            pairs.sort()  # (stage, *pairs) is as injective as (stage, tuple(pairs))
            key = (s, *pairs)
        forms[v] = table.setdefault(key, len(table))
    return forms


def _closed(tree: EventTree, stages: StagePartition) -> bool:
    """Whether every shared stage's florets match slot by slot: d-event, child's stage or status."""
    for florets in (list(map(tree._out.__getitem__, b)) for b in stages.blocks if len(b) > 1):
        k, m = len(florets[0]), len(florets)
        _, dsts, devents, _ = zip(*chain.from_iterable(florets))  # (src, dst, devent, index)
        kids = list(map(stages._index.get, dsts, map(tree.leaf_status.get, dsts)))  # or leaf status
        if list(map(len, florets)) != [k] * m or devents != devents[:k] * m or kids != kids[:k] * m:
            return False
    return True


def compute_positions(staged: StagedTree) -> PositionPartition:
    """Group the situations by canonical form (``_canonical_forms``).  The
    stage partition must cover exactly the tree's situations (``ParseError``),
    and a tree without situations has no position (``DanglingEdge``).
    Closed stages (``_closed``) are a bisimulation, so each is one position:
    its members' subtrees are isomorphic, and positions refine stages."""
    situations, stages = staged.ptree.tree.situations, staged.stages
    listed, wanted = stages._index.keys(), set(situations)
    if listed - wanted:
        raise ParseError(f"stage partition names non-situations: {sorted(listed - wanted)}")
    if wanted - listed:
        raise ParseError(f"stage partition leaves out situations: {sorted(wanted - listed)}")
    if not situations:
        raise DanglingEdge("graph has no positions")
    if len(stages.blocks) < len(situations) and not _closed(staged.ptree.tree, stages):
        forms = _canonical_forms(staged)
        groups: defaultdict[int, list[str]] = defaultdict(list)
        for v in situations:
            groups[forms[v]].append(v)
        # a form is numbered when the bottom-up walk meets its breadth-first-last
        # member, so descending form ids order the positions by last member:
        # merged terminal blocks come after the shallow singletons they absorb
        blocks = tuple(map(tuple, map(groups.__getitem__, sorted(groups, reverse=True))))
        stage_of = tuple(map(stages._index.__getitem__, map(itemgetter(0), blocks)))
    elif tuple(listed) == situations:  # closed breadth-first runs, in position order
        blocks, stage_of = stages.blocks, tuple(range(len(stages.blocks)))
    else:  # closed, listed as the forms path lists them: breadth-first, by last member
        bfs, members = staged.ptree.tree._bfs_index.__getitem__, stages.blocks
        stage_of = tuple(sorted(range(len(members)), key=lambda i: max(map(bfs, members[i]))))
        blocks = tuple(tuple(sorted(members[i], key=bfs)) for i in stage_of)
    ids = tuple(f"w{i}" for i in range(len(blocks)))
    return PositionPartition(blocks=blocks, ids=ids, stage_of=stage_of)
