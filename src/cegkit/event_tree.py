"""Event trees and probability trees.

An event tree is a finite rooted directed tree whose edges carry d-event
labels and whose leaves carry a Failed/Operational status.  The last edge on
every root-to-leaf path is a failure indicator.  A probability tree attaches
a transition vector to each situation (non-leaf vertex): one probability per
emanating edge, summing to one, every component inside the open unit
interval.

Typical use::

    doc = model_io.load(path)
    ptree = build_event_tree(doc)
    first = ptree.tree.out_edges(ptree.tree.root)[0]
    p = ptree.edge_probability(first)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    DanglingEdge,
    LengthMismatch,
    MissingLeafStatus,
    MultipleParents,
    NotNormalized,
    OutOfOpenInterval,
    ParseError,
)

DEFAULT_TOLERANCE = 1e-12


class LeafStatus(Enum):
    FAILED = "failed"
    OPERATIONAL = "operational"


# a document status, or a status already parsed, to its member
_STATUS = {**{s.value: s for s in LeafStatus}, **{s: s for s in LeafStatus}}


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

    def __str__(self) -> str:  # used in reports and error messages
        return f"{self.src}->{self.dst}#{self.index}"


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
        devents = self.devents
        for e in self.edges:
            src, dst, devent, _ = e
            if src not in vertex_set or dst not in vertex_set:
                raise DanglingEdge(f"edge {e} references an unknown vertex")
            if devent not in devents:
                raise ParseError(f"edge {e} references unknown d-event {devent!r}")
            if dst in parent:
                raise MultipleParents(f"vertex {dst} has more than one parent")
            parent[dst] = e
            out[src].append(e)
        roots = [v for v in self.vertices if v not in parent]
        if not roots:
            raise DanglingEdge("no root vertex: every vertex has a parent")
        if len(roots) > 1:
            raise DanglingEdge(f"vertices unreachable from a single root: {roots[1:]}")
        root = roots[0]
        # breadth-first order with siblings in document order
        order = [root]
        for v in order:  # the list grows as it is read
            order.extend([e.dst for e in out[v]])
        if len(order) < len(vertex_set):
            missing = vertex_set.difference(order)
            raise DanglingEdge(f"vertices unreachable from root: {sorted(missing)}")
        for v in self.vertices:
            if not out[v] and self.leaf_status.get(v) is None:
                raise MissingLeafStatus(f"leaf {v} has no status")
        for v in self.leaf_status:
            if v not in vertex_set or out.get(v):
                raise MissingLeafStatus(f"status given for non-leaf vertex {v}")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "_out", {v: tuple(es) for v, es in out.items()})
        object.__setattr__(self, "_bfs_index", dict(zip(order, range(len(order)))))
        object.__setattr__(self, "bfs_order", tuple(order))
        object.__setattr__(self, "situations", tuple(v for v in order if out[v]))
        object.__setattr__(self, "leaves", tuple(v for v in order if not out[v]))

    # -- structure queries --------------------------------------------------

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._out[v]

    def is_leaf(self, v: str) -> bool:
        return not self._out[v]


def validate_tolerance(tolerance: float, name: str = "tolerance") -> float:
    """The one rule for a tolerance: a finite positive number.  ``name``
    says where it came from in the ParseError."""
    if tolerance <= 0.0:  # nan passes this one
        raise ParseError(f"{name} must be positive")
    if not math.isfinite(tolerance):
        raise ParseError(f"{name} must be finite")
    return tolerance


def validate_vector(
    owner: str,
    edges: Sequence[Edge],
    vec: Sequence[float],
    tolerance: float,
    value: str = "probability",
    closed: bool = False,
) -> None:
    """Check one floret's vector: one entry per edge, summing to one within
    ``tolerance``, each inside (0, 1), or [0, 1] when ``closed``.

    ``owner`` names the floret ("situation v3") and ``value`` its entries
    ("probability", or "replacement" for an intervention's vector).  Raises
    LengthMismatch, NotNormalized or OutOfOpenInterval, in that order.
    """
    if len(vec) != len(edges):
        raise LengthMismatch(
            f"{owner}: {len(vec)} probabilities for {len(edges)} edges"
        )
    try:
        total = math.fsum(vec)
    except (ValueError, OverflowError):  # inf - inf, or past the float range
        total = sum(vec)  # nan or inf, which the checks below reject
    if abs(total - 1.0) > tolerance:
        vector = "transition vector" if value == "probability" else value
        raise NotNormalized(f"{owner}: {vector} sums to {total!r}")
    if all(0.0 < p < 1.0 for p in vec):  # inside either interval
        return
    for e, p in zip(edges, vec):
        if not (0.0 <= p <= 1.0 if closed else 0.0 < p < 1.0):
            interval = "[0, 1]" if closed else "(0, 1)"
            raise OutOfOpenInterval(f"edge {e}: {value} {p!r} outside {interval}")


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
        validate_tolerance(self.tolerance)
        out, theta = self.tree._out, self.theta
        for v in self.tree.situations:
            vec = theta.get(v)
            if vec is None:
                raise LengthMismatch(f"no transition vector for situation {v}")
            validate_vector(f"situation {v}", out[v], vec, self.tolerance)

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
            status[v] = _STATUS[s]
        except (KeyError, TypeError):  # unknown or unhashable
            raise ParseError(f"leaf {v}: unknown status {s!r}") from None
    tree = EventTree(
        vertices=tuple(doc.vertices),
        edges=tuple(doc.edges),
        devents=devents,
        leaf_status=status,
    )
    theta = {v: tuple(vec) for v, vec in doc.theta.items()}
    return ProbabilityTree(tree=tree, theta=theta, tolerance=tolerance)
