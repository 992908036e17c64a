"""Event trees and probability trees.

An event tree is a finite rooted directed tree whose edges carry d-event
labels and whose leaves carry a Failed/Operational status.  The last edge on
every root-to-leaf path is a failure indicator.  A probability tree attaches
a transition vector to each situation (non-leaf vertex): one probability per
emanating edge, summing to one, every component inside the open unit
interval.  A few bulk checks over all edges, vertices and vectors accept a
valid tree; only when one fails does an ordered scan find and name the first
fault.

Typical use::

    doc = model_io.load(path)
    ptree = build_event_tree(doc)
    first = ptree.tree.out_edges(ptree.tree.root)[0]
    p = ptree.edge_probability(first)
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, filterfalse, repeat
from numbers import Real
from operator import itemgetter, le, sub
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
_SRC, _DST, _DEVENT = itemgetter(0), itemgetter(1), itemgetter(2)


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


def edge_indices(srcs: Sequence[str], dsts: Sequence[str]) -> list[int]:
    """The index of each edge ``srcs[i] -> dsts[i]`` in list order: 1, or one
    more than the last earlier edge that joins the same two vertices."""
    if len(set(dsts)) == len(dsts) or len(set(zip(srcs, dsts))) == len(dsts):
        return [1] * len(dsts)
    count: dict[tuple[str, str], int] = {}
    indices = []
    for pair in zip(srcs, dsts):
        count[pair] = count.get(pair, 0) + 1
        indices.append(count[pair])
    return indices


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
        vertices, edges, status = self.vertices, self.edges, self.leaf_status
        vertex_set = set(vertices)
        if len(vertex_set) != len(vertices):
            raise ParseError("duplicate vertex ids")
        dsts = list(map(_DST, edges))
        parent = dict(zip(dsts, edges))
        if not (
            vertex_set.issuperset(chain(map(_SRC, edges), dsts))
            and self.devents.keys() >= set(map(_DEVENT, edges))
            and len(parent) == len(edges)
        ):
            seen = set()  # name the first faulty edge
            for e in edges:
                if e.src not in vertex_set or e.dst not in vertex_set:
                    raise DanglingEdge(f"edge {e} references an unknown vertex")
                if e.devent not in self.devents:
                    raise ParseError(f"edge {e} references unknown d-event {e.devent!r}")
                if e.dst in seen:
                    raise MultipleParents(f"vertex {e.dst} has more than one parent")
                seen.add(e.dst)
            raise AssertionError("the edges fail a bulk check but no edge is at fault")
        if len(parent) != len(vertices) - 1:  # not exactly one root
            roots = [v for v in vertices if v not in parent]
            if not roots:
                raise DanglingEdge("no root vertex: every vertex has a parent")
            raise DanglingEdge(f"vertices unreachable from a single root: {roots[1:]}")
        root = next(filterfalse(parent.__contains__, vertices))
        florets: defaultdict[str, list[Edge]] = defaultdict(list)
        for e in edges:
            florets[e[0]].append(e)
        out = dict.fromkeys(vertices, ())
        out.update(zip(florets, map(tuple, florets.values())))
        # breadth-first order, one level at a time, siblings in document order
        order, level = [], [root]
        while level:
            order += level
            level = list(map(_DST, chain.from_iterable(map(out.__getitem__, level))))
        if len(order) < len(vertex_set):
            missing = vertex_set.difference(order)
            raise DanglingEdge(f"vertices unreachable from root: {sorted(missing)}")
        leaves = tuple(filterfalse(out.__getitem__, order))
        if None in map(status.get, leaves):  # name a leaf without a status first
            v = next(v for v in vertices if not out[v] and status.get(v) is None)
            raise MissingLeafStatus(f"leaf {v} has no status")
        if len(status) != len(leaves):  # every leaf has one, so a key is no leaf
            v = next(v for v in status if out.get(v, True))
            kind = "non-leaf" if v in out else "unknown"
            raise MissingLeafStatus(f"status given for {kind} vertex {v}")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_bfs_index", dict(zip(order, range(len(order)))))
        object.__setattr__(self, "bfs_order", tuple(order))
        object.__setattr__(self, "situations", tuple(filter(out.__getitem__, order)))
        object.__setattr__(self, "leaves", leaves)

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
    LengthMismatch, OutOfOpenInterval for an entry that is no number,
    NotNormalized or OutOfOpenInterval, in that order.
    """
    if len(vec) != len(edges):
        raise LengthMismatch(
            f"{owner}: {len(vec)} probabilities for {len(edges)} edges"
        )
    try:
        total = math.fsum(vec)
    except (ValueError, OverflowError):  # inf - inf, or past the float range
        total = sum(vec)  # nan or inf, which the checks below reject
    except TypeError:  # name the first entry that is no number
        e, p = next((e, p) for e, p in zip(edges, vec) if not isinstance(p, Real))
        raise OutOfOpenInterval(f"edge {e}: {value} {p!r} is not a number") from None
    if abs(total - 1.0) > tolerance:
        vector = "transition vector" if value == "probability" else value
        raise NotNormalized(f"{owner}: {vector} sums to {total!r}")
    for e, p in zip(edges, vec):
        if not (0.0 <= p <= 1.0 if closed else 0.0 < p < 1.0):
            interval = "[0, 1]" if closed else "(0, 1)"
            raise OutOfOpenInterval(f"edge {e}: {value} {p!r} outside {interval}")


def vectors_valid(vecs, florets, tolerance: float) -> bool:
    """Whether each vector passes ``validate_vector`` against its floret (an
    edge tuple), decided by a few bulk operations: after False, the first
    fault is the one ``validate_vector`` names on each in turn."""
    vecs = list(vecs)
    try:
        totals = list(map(math.fsum, vecs))
    except (TypeError, ValueError, OverflowError):
        return False
    entries = list(chain.from_iterable(vecs))
    low, high = min(entries, default=0.5), max(entries, default=0.5)
    # a total within tolerance of one is finite, so no entry is nan or inf
    # and the extreme entries decide the interval exactly
    return (
        list(map(len, vecs)) == list(map(len, florets))
        and all(map(le, map(abs, map(sub, totals, repeat(1.0))), repeat(tolerance)))
        and 0.0 < low and high < 1.0
    )


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
        tol = validate_tolerance(self.tolerance)
        out, theta, situations = self.tree._out, self.theta, self.tree.situations
        vecs, florets = map(theta.get, situations), map(out.__getitem__, situations)
        if set(situations) == theta.keys() and vectors_valid(vecs, florets, tol):
            return
        for v in situations:
            vec = theta.get(v)
            if vec is None:
                raise LengthMismatch(f"no transition vector for situation {v}")
            validate_vector(f"situation {v}", out[v], vec, tol)
        for v in theta:
            if not out.get(v):
                raise ParseError(f"theta given for non-situation vertex {v!r}")
        raise AssertionError("theta fails a bulk check but no vector is at fault")

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
    leaves = doc.leaf_status
    try:
        status = dict(zip(leaves, map(_STATUS.__getitem__, leaves.values())))
    except (KeyError, TypeError):  # unknown or unhashable: name the first
        v, s = next((v, s) for v, s in leaves.items() if s not in tuple(_STATUS))
        raise ParseError(f"leaf {v}: unknown status {s!r}") from None
    tree = EventTree(
        vertices=tuple(doc.vertices),
        edges=tuple(doc.edges),
        devents=devents,
        leaf_status=status,
    )
    theta = dict(zip(doc.theta, map(tuple, doc.theta.values())))
    ptree = ProbabilityTree(tree=tree, theta=theta, tolerance=tolerance)
    for cause in getattr(doc, "root_causes", ()) or ():
        if cause not in devents:
            raise ParseError(f"root_causes names unknown d-event {cause!r}")
    return ptree
