"""Stage and position structure on a probability tree.

Two situations share a stage when their florets carry the same multiset of
d-events and matched edges (same d-event) carry transition probabilities
equal within the tolerance, closed transitively.  Positions refine stages:
situations whose coloured subtrees are isomorphic.  Both partitions are
deterministic and carry stable ids (``u0, u1, ...`` and ``w0, w1, ...``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ParseError
from .event_tree import LeafStatus, ProbabilityTree

CanonicalForm = tuple


@dataclass(frozen=True)
class StagePartition:
    """Blocks over situations, numbered breadth-first by first member."""

    blocks: tuple[frozenset, ...]
    ids: tuple[str, ...] = field(init=False, default=())
    _index: Mapping[str, int] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        index = {}
        for i, block in enumerate(self.blocks):
            for v in block:
                if v in index:
                    raise ParseError(f"situation {v} appears in two stages")
                index[v] = i
        object.__setattr__(self, "ids", tuple(f"u{i}" for i in range(len(self.blocks))))
        object.__setattr__(self, "_index", index)

    def stage_id(self, v: str) -> str:
        return self.ids[self._index[v]]


@dataclass(frozen=True)
class StagedTree:
    ptree: ProbabilityTree
    stages: StagePartition


@dataclass(frozen=True)
class PositionPartition:
    """Blocks over situations, with ids assigned so that a position always
    comes after every position holding a breadth-first-earlier last member
    (colex order on member index sets)."""

    blocks: tuple[frozenset, ...]
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


def tolerance_classes(keys: Iterable[tuple], tol: float) -> dict[tuple, tuple]:
    """Map each distinct (shape, values) key to the least key of its class:
    the transitive closure of "same shape, every value within ``tol``".

    One sweep over the sorted keys compares each only with the successors
    of its shape whose first value lies within ``tol`` (every related pair
    does); matches are merged by union-find.
    """
    ordered = sorted(set(keys))
    parent = list(range(len(ordered)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, (shape, values) in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            if ordered[j][0] != shape or ordered[j][1][0] - values[0] > tol:
                break
            if _same_floret(ordered[i], ordered[j], tol):
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    return {k: ordered[find(i)] for i, k in enumerate(ordered)}


def compute_stages(ptree: ProbabilityTree) -> StagePartition:
    """Infer the stage partition from theta: floret keys of one shape with
    values within the tree's tolerance, closed transitively
    (``tolerance_classes``)."""
    keys = {v: _floret_key(ptree, v) for v in ptree.tree.situations}
    least = tolerance_classes(keys.values(), ptree.tolerance)
    # situations come breadth-first, so blocks are numbered by first member
    blocks: dict[tuple, set] = {}
    for v, key in keys.items():
        blocks.setdefault(least[key], set()).add(v)
    return StagePartition(blocks=tuple(frozenset(b) for b in blocks.values()))


def declared_stages(
    ptree: ProbabilityTree, declared: Sequence[Sequence[str]]
) -> StagePartition:
    """Validate an explicitly declared stage structure.

    Situations not listed become singleton stages.  Every declared block must
    satisfy the stage conditions; declared blocks need not be maximal.
    """
    situations = set(ptree.tree.situations)
    seen: set[str] = set()
    blocks: list[Optional[frozenset]] = []
    for block in declared:
        members = dict.fromkeys(block)  # a set in document order
        unknown = members.keys() - situations
        if unknown:
            raise ParseError(f"declared stage names non-situations: {sorted(unknown)}")
        if not members:
            raise ParseError("declared stage is empty")
        if members.keys() & seen:
            raise ParseError("declared stages overlap")
        keys = [_floret_key(ptree, v) for v in members]
        for v, key in zip(members, keys):  # the first member represents the block
            if not _same_floret(keys[0], key, ptree.tolerance):
                raise ParseError(
                    f"declared stage {sorted(members)} violates the stage conditions"
                    f" at {v}"
                )
        seen.update(members)
        blocks.append(frozenset(members))
    # blocks in breadth-first order of their first members; a situation no
    # block lists is a singleton
    owner = {v: i for i, block in enumerate(blocks) for v in block}
    ordered = []
    for v in ptree.tree.situations:
        i = owner.get(v)
        if i is None:
            ordered.append(frozenset((v,)))
        elif blocks[i] is not None:
            ordered.append(blocks[i])
            blocks[i] = None  # placed at its first member
    return StagePartition(blocks=tuple(ordered))


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
    part of the structure.
    """
    tree = staged.ptree.tree
    out = tree._out
    stage = staged.stages._index
    # the two leaf forms; every situation form is a table index, from 0
    forms = {
        v: -1 if status is LeafStatus.FAILED else -2
        for v, status in tree.leaf_status.items()
    }
    table: dict[CanonicalForm, int] = {}
    for v in reversed(tree.situations):
        children = tuple(sorted([(e.devent, forms[e.dst]) for e in out[v]]))
        forms[v] = table.setdefault((stage[v], children), len(table))
    return forms


def compute_positions(staged: StagedTree) -> PositionPartition:
    forms = _canonical_forms(staged)
    tree = staged.ptree.tree
    groups: dict[int, list[str]] = {}
    for v in tree.situations:
        groups.setdefault(forms[v], []).append(v)
    bfs = tree._bfs_index
    # positions holding later (breadth-first) members come later, so merged
    # terminal blocks are numbered after the shallow singletons they absorb;
    # groups fill in breadth-first order, so a block's last member is its latest
    ordered = sorted(groups.values(), key=lambda b: bfs[b[-1]])
    blocks = tuple(frozenset(b) for b in ordered)
    stage = staged.stages._index
    stage_of = tuple(stage[b[0]] for b in ordered)
    ids = tuple(f"w{i}" for i in range(len(blocks)))
    return PositionPartition(blocks=blocks, ids=ids, stage_of=stage_of)
