"""Event trees and probability trees.

An event tree is a finite rooted directed tree whose edges carry d-event
labels and whose leaves carry a Failed/Operational status.  The last edge on
every root-to-leaf path is a failure indicator.  A probability tree attaches
a transition vector to each situation (non-leaf vertex): one probability per
emanating edge, summing to one, every component inside the open unit
interval.

Typical use::

    doc = model_io.load(text)
    ptree = build_event_tree(doc)
    paths = root_to_leaf_paths(ptree)
    p = path_probability(ptree, next(iter(paths)))
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    DanglingEdge,
    LengthMismatch,
    MissingLeafStatus,
    MultipleParents,
    ParseError,
    PathNotInTree,
    ProbabilityNotNormalized,
    ProbabilityOutOfOpenInterval,
)

DEFAULT_TOLERANCE = 1e-12


class LeafStatus(Enum):
    FAILED = "failed"
    OPERATIONAL = "operational"


@dataclass(frozen=True)
class DEvent:
    """A labelled event: edges carrying the same id are the same d-event."""

    id: str
    text: str = ""


class Edge(NamedTuple):
    """Directed edge keyed by (src, dst, index).

    ``index`` distinguishes parallel edges sharing endpoints; it is 1-based
    and follows document order, so sibling structure never collapses.  A
    named tuple, so hashing and equality run in C; an edge equals the plain
    tuple of its fields.
    """

    src: str
    dst: str
    devent: str
    index: int = 1

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.src, self.dst, self.index)

    def __str__(self) -> str:  # used in reports and error messages
        return f"{self.src}->{self.dst}#{self.index}"


Path = tuple[Edge, ...]


class PathSet:
    """An ordered, duplicate-free collection of paths with set semantics.

    Iteration order is deterministic (construction order); equality and the
    boolean operators compare by membership only.
    """

    __slots__ = ("_paths", "_members")

    def __init__(self, paths: Iterable[Path] = ()):
        seen = {}
        for p in paths:
            seen.setdefault(p, None)
        self._paths: tuple[Path, ...] = tuple(seen)
        self._members: frozenset[Path] = frozenset(self._paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __bool__(self) -> bool:
        return bool(self._paths)

    def __contains__(self, path: Path) -> bool:
        return path in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathSet):
            return NotImplemented
        return self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def __and__(self, other: "PathSet") -> "PathSet":
        return PathSet(p for p in self._paths if p in other._members)

    def __or__(self, other: "PathSet") -> "PathSet":
        return PathSet(self._paths + other._paths)

    def __sub__(self, other: "PathSet") -> "PathSet":
        return PathSet(p for p in self._paths if p not in other._members)

    def __repr__(self) -> str:
        return f"PathSet({len(self._paths)} paths)"


@dataclass(frozen=True)
class EventTree:
    """Structural part of a probability tree: no numbers attached yet."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    devents: Mapping[str, DEvent]
    leaf_status: Mapping[str, LeafStatus]
    root: str = field(init=False, default="")
    # derived lookups, filled in __post_init__
    _out: Mapping[str, tuple[Edge, ...]] = field(init=False, default=None, repr=False)
    _parent: Mapping[str, Edge] = field(init=False, default=None, repr=False)
    _bfs_index: Mapping[str, int] = field(init=False, default=None, repr=False)
    # breadth-first orders, siblings in document order; situations are non-leaves
    bfs_order: tuple[str, ...] = field(init=False, default=(), repr=False)
    situations: tuple[str, ...] = field(init=False, default=(), repr=False)
    leaves: tuple[str, ...] = field(init=False, default=(), repr=False)

    def __post_init__(self):
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise ParseError("duplicate vertex ids")
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        parent: dict[str, Edge] = {}
        for e in self.edges:
            if e.src not in vertex_set or e.dst not in vertex_set:
                raise DanglingEdge(f"edge {e} references an unknown vertex")
            if e.devent not in self.devents:
                raise ParseError(f"edge {e} references unknown d-event {e.devent!r}")
            if e.dst in parent:
                raise MultipleParents(f"vertex {e.dst} has more than one parent")
            parent[e.dst] = e
            out[e.src].append(e)
        roots = [v for v in self.vertices if v not in parent]
        if not roots:
            raise DanglingEdge("no root vertex: every vertex has a parent")
        if len(roots) > 1:
            raise DanglingEdge(f"vertices unreachable from a single root: {roots[1:]}")
        root = roots[0]
        # breadth-first order with siblings in document order
        order: dict[str, int] = {}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order[v] = len(order)
            for e in out[v]:
                queue.append(e.dst)
        missing = vertex_set - set(order)
        if missing:
            raise DanglingEdge(f"vertices unreachable from root: {sorted(missing)}")
        for v in self.vertices:
            if not out[v]:
                status = self.leaf_status.get(v)
                if status is None:
                    raise MissingLeafStatus(f"leaf {v} has no status")
        for v in self.leaf_status:
            if v not in vertex_set or out.get(v):
                raise MissingLeafStatus(f"status given for non-leaf vertex {v}")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "_out", {v: tuple(es) for v, es in out.items()})
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_bfs_index", order)
        object.__setattr__(self, "bfs_order", tuple(order))
        object.__setattr__(self, "situations", tuple(v for v in order if out[v]))
        object.__setattr__(self, "leaves", tuple(v for v in order if not out[v]))

    # -- structure queries --------------------------------------------------

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._out[v]

    def is_leaf(self, v: str) -> bool:
        return not self._out[v]

    def bfs_index(self, v: str) -> int:
        return self._bfs_index[v]

    def floret_devents(self, v: str) -> frozenset[str]:
        return frozenset(e.devent for e in self._out[v])


@dataclass(frozen=True)
class ProbabilityTree:
    """Event tree plus idle transition vectors.

    ``theta[v][i]`` is the transition probability of the i-th emanating edge
    of situation ``v`` in sibling order.
    """

    tree: EventTree
    theta: Mapping[str, tuple[float, ...]]
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        for v in self.tree.situations:
            vec = self.theta.get(v)
            if vec is None:
                raise LengthMismatch(f"no transition vector for situation {v}")
            edges = self.tree.out_edges(v)
            if len(vec) != len(edges):
                raise LengthMismatch(
                    f"situation {v}: {len(vec)} probabilities for {len(edges)} edges"
                )
            total = math.fsum(vec)
            if abs(total - 1.0) > self.tolerance:
                raise ProbabilityNotNormalized(
                    f"situation {v}: transition vector sums to {total!r}"
                )
            for e, p in zip(edges, vec):
                if not (0.0 < p < 1.0):
                    raise ProbabilityOutOfOpenInterval(
                        f"edge {e}: probability {p!r} outside (0, 1)"
                    )

    def edge_probability(self, edge: Edge) -> float:
        edges = self.tree.out_edges(edge.src)
        return self.theta[edge.src][edges.index(edge)]


def build_event_tree(doc, tolerance: float = DEFAULT_TOLERANCE) -> ProbabilityTree:
    """Build a validated probability tree from a parsed model document.

    ``doc`` is any object exposing ``devents``, ``vertices``, ``edges``,
    ``leaf_status`` and ``theta`` in document form (see ``model_io``).
    """
    devents = {d.id: d for d in doc.devents}
    if len(devents) != len(doc.devents):
        raise ParseError("duplicate d-event ids")
    status = {}
    for v, s in doc.leaf_status.items():
        try:
            status[v] = s if isinstance(s, LeafStatus) else LeafStatus(s)
        except ValueError:
            raise ParseError(f"leaf {v}: unknown status {s!r}") from None
    tree = EventTree(
        vertices=tuple(doc.vertices),
        edges=tuple(doc.edges),
        devents=devents,
        leaf_status=status,
    )
    theta = {v: tuple(vec) for v, vec in doc.theta.items()}
    return ProbabilityTree(tree=tree, theta=theta, tolerance=tolerance)


def root_to_leaf_paths(ptree: ProbabilityTree) -> PathSet:
    """All root-to-leaf paths as ordered edge lists, in depth-first order."""
    tree = ptree.tree
    out: list[Path] = []
    stack: list[Path] = [()]
    while stack:
        prefix = stack.pop()
        edges = tree.out_edges(prefix[-1].dst if prefix else tree.root)
        if edges:
            stack.extend(prefix + (e,) for e in reversed(edges))
        else:
            out.append(prefix)
    return PathSet(out)


def path_probability(ptree: ProbabilityTree, path: Path) -> float:
    """Product of transition probabilities along ``path``.

    The path must be a full root-to-leaf path of this tree.
    """
    tree = ptree.tree
    if not path or path[0].src != tree.root:
        raise PathNotInTree("path does not start at the root")
    prod = 1.0
    for i, e in enumerate(path):
        try:
            known = e in tree.out_edges(e.src)
        except KeyError:
            known = False
        if not known:
            raise PathNotInTree(f"edge {e} is not in the tree")
        if i and path[i - 1].dst != e.src:
            raise PathNotInTree("path edges are not consecutive")
        prod *= ptree.edge_probability(e)
    if not tree.is_leaf(path[-1].dst):
        raise PathNotInTree("path does not end at a leaf")
    return prod
