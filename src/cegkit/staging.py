"""Stage and position structure on a probability tree.

Two situations share a stage when their florets carry the same set of
d-events and matched edges (same d-event) carry equal transition
probabilities.  Positions refine stages: situations whose coloured subtrees
are isomorphic.  Both partitions are deterministic and carry stable ids
(``u0, u1, ...`` and ``w0, w1, ...``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ParseError
from .event_tree import DEFAULT_TOLERANCE, ProbabilityTree

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

    def stage_index(self, v: str) -> int:
        return self._index[v]

    def stage_id(self, v: str) -> str:
        return self.ids[self._index[v]]

    def colour(self, v: str) -> str:
        """Colour id of a situation's stage (one colour per stage)."""
        return f"c{self._index[v]}"


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


def _same_floret(ptree: ProbabilityTree, u: str, v: str, tol: float) -> bool:
    tree = ptree.tree
    if tree.floret_devents(u) != tree.floret_devents(v):
        return False
    # matched edges share a d-event; repeated d-events compare as sorted value lists
    def by_devent(w):
        groups: dict[str, list[float]] = {}
        for e, p in zip(tree.out_edges(w), ptree.theta[w]):
            groups.setdefault(e.devent, []).append(p)
        return {d: sorted(ps) for d, ps in groups.items()}

    gu, gv = by_devent(u), by_devent(v)
    for d in gu:
        pu, pv = gu[d], gv[d]
        if len(pu) != len(pv):
            return False
        if any(abs(a - b) > tol for a, b in zip(pu, pv)):
            return False
    return True


def compute_stages(
    ptree: ProbabilityTree, tolerance: float = DEFAULT_TOLERANCE
) -> StagePartition:
    """Infer the stage partition from theta.

    Pairwise floret equality within tolerance, closed transitively, so the
    result is exactly the closure of the pairwise relation.
    """
    situations = ptree.tree.situations
    parent = {v: v for v in situations}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # bucket by d-event set first; only situations with equal sets can merge
    buckets: dict[frozenset, list[str]] = {}
    for v in situations:
        buckets.setdefault(ptree.tree.floret_devents(v), []).append(v)
    for group in buckets.values():
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                if _same_floret(ptree, u, v, tolerance):
                    parent[find(u)] = find(v)

    blocks: dict[str, set] = {}
    for v in situations:
        blocks.setdefault(find(v), set()).add(v)
    bfs = ptree.tree.bfs_index
    ordered = sorted(blocks.values(), key=lambda b: min(bfs(v) for v in b))
    return StagePartition(blocks=tuple(frozenset(b) for b in ordered))


def declared_stages(
    ptree: ProbabilityTree,
    declared: Sequence[Sequence[str]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> StagePartition:
    """Validate an explicitly declared stage structure.

    Situations not listed become singleton stages.  Every declared block must
    satisfy the stage conditions; declared blocks need not be maximal.
    """
    situations = set(ptree.tree.situations)
    seen: set[str] = set()
    blocks: list[set] = []
    for block in declared:
        members = set(block)
        unknown = members - situations
        if unknown:
            raise ParseError(f"declared stage names non-situations: {sorted(unknown)}")
        if members & seen:
            raise ParseError("declared stages overlap")
        rep = next(iter(members))
        for v in members:
            if not _same_floret(ptree, rep, v, tolerance):
                raise ParseError(
                    f"declared stage {sorted(members)} violates the stage conditions"
                    f" at {v}"
                )
        seen |= members
        blocks.append(members)
    for v in situations - seen:
        blocks.append({v})
    bfs = ptree.tree.bfs_index
    ordered = sorted(blocks, key=lambda b: min(bfs(v) for v in b))
    return StagePartition(blocks=tuple(frozenset(b) for b in ordered))


def staged_tree_from_document(doc, ptree: Optional[ProbabilityTree] = None) -> StagedTree:
    from .event_tree import build_event_tree

    if ptree is None:
        ptree = build_event_tree(doc)
    if getattr(doc, "stages", None) is not None:
        stages = declared_stages(ptree, doc.stages, ptree.tolerance)
    else:
        stages = compute_stages(ptree, ptree.tolerance)
    return StagedTree(ptree=ptree, stages=stages)


def _canonical_forms(staged: StagedTree) -> dict[str, int]:
    """Bottom-up canonical form id of every subtree.

    Forms are hash-consed: every distinct (stage, sorted multiset of
    (d-event, child form)) structure gets one integer id, so equal ids hold
    exactly when the coloured subtrees are isomorphic.  Leaf statuses are
    part of the structure.
    """
    tree = staged.ptree.tree
    stages = staged.stages
    table: dict[CanonicalForm, int] = {}
    forms: dict[str, int] = {}
    for v in reversed(tree.bfs_order):
        if tree.is_leaf(v):
            key: CanonicalForm = ("leaf", tree.leaf_status[v].value)
        else:
            children = tuple(
                sorted((e.devent, forms[e.dst]) for e in tree.out_edges(v))
            )
            key = (stages.stage_index(v), children)
        forms[v] = table.setdefault(key, len(table))
    return forms


def compute_positions(staged: StagedTree) -> PositionPartition:
    forms = _canonical_forms(staged)
    tree = staged.ptree.tree
    groups: dict[CanonicalForm, list[str]] = {}
    for v in tree.situations:
        groups.setdefault(forms[v], []).append(v)
    bfs = tree.bfs_index
    # positions holding later (breadth-first) members come later, so merged
    # terminal blocks are numbered after the shallow singletons they absorb
    ordered = sorted(groups.values(), key=lambda b: max(bfs(v) for v in b))
    blocks = tuple(frozenset(b) for b in ordered)
    stage_of = tuple(
        staged.stages.stage_index(next(iter(b))) for b in blocks
    )
    ids = tuple(f"w{i}" for i in range(len(blocks)))
    return PositionPartition(blocks=blocks, ids=ids, stage_of=stage_of)
