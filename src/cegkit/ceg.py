"""Chain event graphs.

A CEG collapses a staged tree onto its positions plus at most two sinks, a
failure sink and a working sink.  Parallel edges between the same pair of
positions are kept apart by a 1-based edge index.  The masses of path
sets (the lambda sets of root-to-sink paths through a selector) come from
one propagation kernel, a pull pass run forward over in-edges
(``forward_messages``/``class_masses``) or backward over out-edges
(``backward_messages``), whose cost grows with the edges, not the paths.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, filterfalse, islice, repeat
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    DanglingEdge,
    LengthMismatch,
    PositionNotInCeg,
    UnknownEdge,
    UnknownSelector,
)
from .event_tree import (
    DEFAULT_TOLERANCE,
    DEvent,
    Edge,
    LeafStatus,
    build_event_tree,
    edge_indices,
    validate_tolerance,
    validate_vector,
)
from .model_io import parse_edge_ref
from .staging import PositionPartition, StagedTree, compute_positions, staged_tree_from_document

SINK_FAIL = "winf_f"
SINK_OK = "winf_n"
_SINKS = frozenset((SINK_FAIL, SINK_OK))


@dataclass(frozen=True)
class Ceg:
    """Chain event graph with transition probabilities.

    ``interior`` is True for idle graphs (all probabilities strictly inside
    the unit interval); manipulated and conditioned graphs may carry 0 and 1.
    """

    position_ids: tuple[str, ...]
    members: Mapping[str, tuple[str, ...]]
    edges: tuple[Edge, ...]
    theta: Mapping[Edge, float]
    devents: Mapping[str, DEvent]
    stage_ids: Mapping[str, str]
    root_causes: tuple[str, ...] = ()
    interior: bool = True
    tolerance: float = DEFAULT_TOLERANCE
    name: str = ""
    _out: Mapping[str, tuple[Edge, ...]] = field(init=False, default=None, repr=False)
    # position or sink -> its in-edges, by source in ``order``, then in floret order
    _in: Mapping[str, list[Edge]] = field(init=False, default=None, repr=False)
    sinks: tuple[str, ...] = field(init=False, default=())
    # positions in topological order, parents before children
    order: tuple[str, ...] = field(init=False, default=(), repr=False)

    def __post_init__(self):
        validate_tolerance(self.tolerance)
        out: dict[str, list[Edge]] = {w: [] for w in self.position_ids}
        for e in self.edges:
            if e.src not in out:
                raise PositionNotInCeg(f"edge {e} leaves unknown position {e.src}")
            if e.dst not in _SINKS and e.dst not in out:
                raise PositionNotInCeg(f"edge {e} enters unknown position {e.dst}")
            out[e.src].append(e)
        for w, es in out.items():
            if not es:
                raise LengthMismatch(f"position {w} has no emanating edges")
            vec = [self.theta.get(e) for e in es]  # a missing entry reads None
            validate_vector(f"position {w}", es, vec, self.tolerance, closed=not self.interior)
        self._link({w: tuple(es) for w, es in out.items()}, [e[1] for e in self.edges])

    def _link(self, out: dict[str, tuple[Edge, ...]], dsts: Sequence[str]) -> None:
        """Set the fields derived from checked florets (``out``, position ->
        its edges in graph order) and the edges' destinations: ``_out``,
        ``sinks``, and ``order`` and ``_in`` by Kahn's walk, which raises on
        a cycle, then on a graph with no positions, and then on a parentless
        position other than the root."""
        indegree = Counter(dsts)
        sinks = tuple(s for s in (SINK_FAIL, SINK_OK) if s in indegree)
        into: dict[str, list[Edge]] = {w: [] for w in chain(out, sinks)}
        order = [w for w in self.position_ids if w not in indegree]
        parentless = order[:]
        for w in order:  # Kahn's algorithm; the list grows as it is read
            for e in out[w]:
                dst = e[1]
                into[dst].append(e)
                left = indegree[dst] = indegree[dst] - 1
                if not left and dst in out:
                    order.append(dst)
        if len(order) < len(out):
            # each position left out has a parent left out: walk up to a cycle
            placed = set(order)
            parent = {e[1]: e[0] for e in reversed(self.edges) if e[0] not in placed}
            w, walked = next(filterfalse(placed.__contains__, out)), set()
            while w not in walked:
                walked.add(w)
                w = parent[w]
            raise DanglingEdge(f"graph has a cycle through position {w}")
        if not out:
            raise DanglingEdge("graph has no positions")
        if parentless != list(self.position_ids[:1]):
            names = ", ".join(parentless)
            raise DanglingEdge(f"only the root {self.root} may lack in-edges, not {names}")
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", into)
        object.__setattr__(self, "sinks", sinks)
        object.__setattr__(self, "order", tuple(order))

    # -- structure ----------------------------------------------------------

    @property
    def root(self) -> str:
        return self.position_ids[0]

    def out_edges(self, w: str) -> tuple[Edge, ...]:
        if w not in self._out:
            raise PositionNotInCeg(f"unknown position {w}")
        return self._out[w]

    def theta_vector(self, w: str) -> tuple[float, ...]:
        return tuple(self.theta[e] for e in self.out_edges(w))

    def find_edge(self, src: str, dst: str, index: int = 1) -> Edge:
        for e in self.edges:
            if e.src == src and e.dst == dst and e.index == index:
                return e
        raise UnknownEdge(f"no edge {src}->{dst}#{index}")

    def edges_of_devent(self, devent: str) -> tuple[Edge, ...]:
        if devent not in self.devents:
            raise UnknownSelector(f"unknown d-event {devent!r}")
        return tuple(e for e in self.edges if e.devent == devent)


EdgeRef = Union[Edge, tuple, str]


def _resolve_edge(ceg: Ceg, ref: EdgeRef) -> Edge:
    if isinstance(ref, Edge):
        if ref not in ceg.theta:
            raise UnknownEdge(f"no edge {ref}")
        return ref
    if isinstance(ref, str):
        ref = parse_edge_ref(ref)
    src, dst, index = ref
    return ceg.find_edge(src, dst, index)


def _pull(starts: Iterable[str], steps: Iterable[str], edges_at: Mapping, end: int,
          edge_sets: Sequence[Iterable[Edge]], weights: Mapping[Edge, float]) -> dict:
    """The propagation kernel, one pass: each of ``starts`` carries the
    empty path, of mass 1, and each position of ``steps`` gets as class
    table the sum, over its edges in ``edges_at``, of the table at the
    edge's other end ``e[end]``, each class widened by the edge's bits and
    scaled by its weight.  A path's class is the bitmask of the edge
    sets it uses: bit ``i`` is set when it takes an edge of ``edge_sets[i]``.
    A class reached only through zero factors keeps its key, so the keys
    alone describe path structure and every weighting yields them in the
    same order.  Cost is edges times classes, whatever the number of paths.
    """
    bits: dict[Edge, int] = {}
    for i, edges in enumerate(edge_sets):
        for e in edges:
            bits[e] = bits.get(e, 0) | 1 << i
    tables: dict[str, dict[int, float]] = {w: {0: 1} for w in starts}
    for w in steps:
        table = tables[w] = {}
        for e in edges_at[w]:
            bit = bits.get(e, 0)
            f = weights[e]
            for mask, m in tables[e[end]].items():
                key = mask | bit
                held = table.get(key)
                table[key] = m * f if held is None else held + m * f
    return tables


def forward_messages(
    ceg: Ceg,
    edge_sets: Sequence[Iterable[Edge]] = (),
    weights: Optional[Mapping[Edge, float]] = None,
) -> dict[str, dict[int, float]]:
    """The kernel run forward, down the topological order and then the
    sinks, over in-edges: for every position and sink, the mass of the root
    prefixes arriving there by class, under one weighting (edge -> factor;
    default the graph's own theta)."""
    weights = ceg.theta if weights is None else weights  # the root is first in the order
    return _pull(ceg.order[:1], ceg.order[1:] + ceg.sinks, ceg._in, 0, edge_sets, weights)


def backward_messages(
    ceg: Ceg, edge_sets: Sequence[Iterable[Edge]]
) -> dict[str, dict[int, float]]:
    """The kernel run backward, from the sinks up the topological order,
    over out-edges: for every position and sink, the mass under the graph's
    theta of the paths from it to the sinks by class, with the bit layout
    and class rules of ``forward_messages``.  The root-to-sink paths through
    edge ``e`` in class ``c`` then have the mass of ``forward[e.src][a] *
    theta[e] * backward[e.dst][b]`` summed over the classes with ``a |
    bit(e) | b == c``."""
    return _pull(ceg.sinks, reversed(ceg.order), ceg._out, 1, edge_sets, ceg.theta)


def class_masses(
    ceg: Ceg,
    edge_sets: Sequence[Iterable[Edge]],
    weightings: Optional[Sequence[Mapping[Edge, float]]] = None,
) -> dict[int, list[float]]:
    """Mass of every root-to-sink path class, one entry per weighting
    (default the graph's own theta): one ``forward_messages`` pass per
    weighting, its sink classes summed, the passes zipped by class."""
    edge_sets = [tuple(edges) for edges in edge_sets]  # read once per pass
    weightings = weightings or (ceg.theta,)
    tables = [_sink_classes(ceg, forward_messages(ceg, edge_sets, w)) for w in weightings]
    return {mask: [table[mask] for table in tables] for mask in tables[0]}


def _sink_classes(ceg: Ceg, arriving: Mapping[str, Mapping[int, float]]) -> dict[int, float]:
    """A forward pass's root-to-sink path classes, each summed over the sinks."""
    classes: dict[int, float] = {}
    for sink in ceg.sinks:
        for mask, m in arriving[sink].items():
            held = classes.get(mask)
            classes[mask] = m if held is None else held + m
    return classes


def is_fine_cut(ceg: Ceg, positions: Iterable[str]) -> bool:
    """True when the union of the positions' lambda sets covers every path."""
    cut: list[Edge] = []
    for w in positions:
        if w in (SINK_FAIL, SINK_OK):
            cut.extend(e for e in ceg.edges if e.dst == w)
        elif w in ceg.position_ids:
            cut.extend(ceg.out_edges(w))
        else:
            raise PositionNotInCeg(f"unknown position {w}")
    return 0 not in class_masses(ceg, [cut])


def build_ceg(
    staged: StagedTree, *, root_causes: Sequence[str] = (), name: str = ""
) -> Ceg:
    """Collapse a staged tree onto its chain event graph.

    Each position inherits the floret of its breadth-first-first member;
    members of one position have isomorphic coloured subtrees, so the choice
    of representative does not matter.  Leaves become the failure or working
    sink; a sink nobody reaches is simply absent.

    The graph is not checked again: its vectors are the tree's, checked at
    the same tolerance on the same open interval, and its edges join
    situations with out-edges or sinks.  ``compute_positions`` checks that
    the stage partition covers exactly the tree's situations.
    """
    return _collapse(staged, compute_positions(staged), root_causes, name)


def _collapse(
    staged: StagedTree, positions: PositionPartition, root_causes: Sequence[str], name: str
) -> Ceg:
    """``build_ceg`` on the position partition ``positions`` of ``staged``."""
    tree = staged.ptree.tree
    out, idle, status = tree._out, staged.ptree.theta, tree.leaf_status
    members = dict(zip(positions.ids, positions.blocks))
    position_of = {v: wid for wid, block in members.items() for v in block}
    reps = [block[0] for block in positions.blocks]
    florets = list(map(out.__getitem__, reps))
    sizes = list(map(len, florets))
    tree_edges = list(chain.from_iterable(florets))
    srcs = list(chain.from_iterable(map(repeat, positions.ids, sizes)))
    # a tree edge lands on a position, or on the sink of its leaf's status
    failed = LeafStatus.FAILED
    dsts = [
        position_of.get(e[1]) or (SINK_FAIL if status[e[1]] is failed else SINK_OK)
        for e in tree_edges
    ]
    rows = zip(srcs, dsts, map(itemgetter(2), tree_edges), edge_indices(srcs, dsts))
    edges = tuple(map(tuple.__new__, repeat(Edge), rows))
    theta = dict(zip(edges, chain.from_iterable(map(idle.__getitem__, reps))))
    stage_ids = dict(
        zip(positions.ids, map(staged.stages.ids.__getitem__, positions.stage_of))
    )
    graph = object.__new__(Ceg)  # the constructor would check it all again
    vars(graph).update(
        position_ids=positions.ids,
        members=members,
        edges=edges,
        theta=theta,
        devents=dict(tree.devents),
        stage_ids=stage_ids,
        root_causes=tuple(root_causes),
        interior=True,
        tolerance=staged.ptree.tolerance,
        name=name,
    )
    # each position's edges were laid out together, in position order
    rest = iter(edges)
    graph._link({w: tuple(islice(rest, n)) for w, n in zip(positions.ids, sizes)}, dsts)
    return graph


def ceg_from_document(doc, tolerance: float = DEFAULT_TOLERANCE) -> Ceg:
    """Full pipeline from a parsed model document to its graph."""
    ptree = build_event_tree(doc, tolerance)
    staged = staged_tree_from_document(doc, ptree)
    return build_ceg(
        staged,
        root_causes=getattr(doc, "root_causes", ()) or (),
        name=getattr(doc, "name", "") or "",
    )
