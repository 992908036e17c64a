"""Causal effect computation and back-door identification.

Three routes to the post-intervention probability of a target d-event:

* ``brute_force_effect``: exhaustive enumeration with the substitution
  formula, normalized over the intervened path set.  The reference value,
  and the only code here that lists paths; it adds their products only in
  ``math.fsum``, whose sum is correctly rounded in any order.
* ``causal_effect_devent``: the controlled d-event decomposition, summing
  the singular effect of each controlled d-event against its manipulated
  probability.
* ``causal_effect_edge_level``: the same decomposition edge by edge, which
  stays exact even when one controlled d-event labels edges with different
  downstream behaviour.

Back-door machinery: verify a candidate partition of the intervened path
set against the two screening criteria, evaluate the adjustment formula,
and search a small family of structurally derived candidates.  Blocks are
edge sets.  The routes and the back-door checks read their masses from
the one propagation kernel.  ``stochastic_answer`` computes a whole
stochastic query from one validation and one idle forward pass, which the
decomposition routes, the fine-cut test and the search's screen all read.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import count, islice
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .ceg import Ceg, _resolve_edge, _sink_classes, backward_messages, class_masses, forward_messages
from .errors import (
    ControlledEventLeaksOutsideIntervention,
    NotAPartition,
    ParseError,
    PartitionNotValid,
    PositionNotInCeg,
    UndefinedConditional,
    UnknownEdge,
    UnknownSelector,
    UnknownTarget,
)
from .event_tree import Edge
from .intervention import (
    DirichletFloretPrior,
    Intervened,
    RemedialRecord,
    StochasticManipulation,
    _conditioning,
    _forced_theta,
    _posterior_means,
    check_separate,
    indicator_terms,
    root_cause_edges,
    substituted_theta,
    validate_stochastic,
)


@dataclass(frozen=True)
class BackdoorPartition:
    """Candidate blocking partition of the intervened path set.

    Each block is an edge set: an intervened path belongs to the block when
    it uses one of the block's edges.  ``kind`` records how the blocks were
    formed (devents, stages, positions or edges); ``labels`` carries one
    human-readable descriptor per block.
    """

    blocks: tuple[frozenset[Edge], ...]
    labels: tuple[str, ...]
    kind: str = "custom"


@dataclass(frozen=True)
class CriterionComparison:
    criterion: int
    position: str
    devent: str
    edge: Edge
    block: str
    lhs: float
    rhs: float
    ok: bool
    vacuous: bool = False


@dataclass(frozen=True)
class BackdoorReport:
    passed: bool
    comparisons: tuple[CriterionComparison, ...]

    def failures(self) -> tuple[CriterionComparison, ...]:
        return tuple(c for c in self.comparisons if not c.ok)


def _bits(mask: int, count: int) -> list[int]:
    """Indices of the set bits of ``mask`` below ``count``, lowest first."""
    mask &= (1 << count) - 1
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1  # clear the lowest set bit
    return out


def _require_target(ceg: Ceg, target: str) -> None:
    if target not in ceg.devents:
        raise UnknownTarget(f"unknown target d-event {target!r}")


def idle_target_mass(ceg: Ceg, target: str) -> float:
    """Probability of the target d-event with no intervention at all."""
    _require_target(ceg, target)
    return class_masses(ceg, [ceg.edges_of_devent(target)]).get(1, [0.0])[0]


def brute_force_effect(
    ceg: Ceg, manipulation: StochasticManipulation, target: str
) -> float:
    """Reference value by exhaustive enumeration.

    Sums the substituted path probabilities over the intervened paths
    hitting the target, normalized by the total substituted mass of the
    intervened path set.  The only route that lists paths, so the kernel
    routes can be checked against it: a walk from the root, level by level,
    keeps per position and flag pair (passed w*, used a target edge) the
    products of the path prefixes arriving there, multiplied root to sink,
    and joins lists that meet, so each path keeps its own product.
    """
    (star, _, _), hat = _checked(ceg, manipulation, target)
    return _brute_force(ceg, star, hat, target)


def _brute_force(ceg: Ceg, star, factor, target: str) -> float:
    """``brute_force_effect``'s walk, on a checked target and w* and the
    substituted factors."""
    # (position, passed w*, hit target) -> products of the prefixes that arrive so
    level = {(ceg.root, False, False): [1.0]}
    weights, hits = [], []
    while level:
        arrived = {}
        for (w, passed, hit), prods in level.items():
            passed = passed or w in star
            for e in ceg.out_edges(w):
                f = factor[e]
                step = [p * f for p in prods]
                key = (e.dst, passed, hit or e.devent == target)
                if e.dst not in ceg.sinks:  # prefixes that meet are joined, not summed
                    arrived.setdefault(key, []).extend(step)
                elif passed:  # complete paths through w*
                    weights += step
                    if key[2]:  # and a target edge
                        hits += step
        level = arrived
    total = math.fsum(weights)
    if total <= 0.0:
        raise UndefinedConditional("intervened path set has no mass")
    return math.fsum(hits) / total


def _checked(ceg: Ceg, manipulation: StochasticManipulation, target: str):
    """Check a public route's target, then its manipulation; returns the
    checked intervened set and the substituted factors."""
    _require_target(ceg, target)
    return validate_stochastic(ceg, manipulation), substituted_theta(ceg, manipulation)


def _edge_rows(ceg: Ceg, idle: _IdleTable, hat):
    """The decomposition routes' table, on the idle table of a checked
    target and w* and the substituted factors.

    Returns the out-edges of w*; per edge, the idle mass of the paths
    through it and of those also hitting the target (the idle table's
    column totals) and their manipulated mass (one kernel pass, decoded
    alike); and whether w* is a fine cut: every path class has an
    intervened-edge bit.  Raises for an edge with no idle mass.
    """
    layout, totals = idle.layout, idle.totals
    for e, (_, c, _) in zip(layout.crossed, layout.columns):
        if totals[c] <= 0.0:  # both routes divide by it
            raise UndefinedConditional(f"no conditioned mass through {e}")
    sets = idle.edge_sets[: 1 + len(layout.crossed)]
    _, hat_totals = _decode(layout, _sink_classes(ceg, forward_messages(ceg, sets, hat)))
    rows = [[totals[c], totals[c + layout.half], hat_totals[c]] for _, c, _ in layout.columns]
    return layout.crossed, rows, None not in idle.decoded.values()


def causal_effect_devent(
    ceg: Ceg, manipulation: StochasticManipulation, target: str
) -> float:
    """Controlled d-event decomposition of the manipulated target mass.

    Every d-event labelling an intervened edge must label intervened edges
    only; its singular effect is the position-weighted conditional of the
    target given each of its edges, evaluated in the conditioned idle graph.
    """
    (star, _, _), hat = _checked(ceg, manipulation, target)
    idle = _IdleTable(ceg, target, star, screen=False)
    return _devent_value(idle.layout, _edge_rows(ceg, idle, hat)[1])


def _devent_value(layout: _Layout, rows) -> float:
    """``causal_effect_devent`` from w*'s layout and decomposition table."""
    e = layout.leak
    if e is not None:
        raise ControlledEventLeaksOutsideIntervention(
            f"d-event {e.devent!r} also labels {e}, outside the"
            " intervened florets"
        )
    crossed = layout.crossed
    idle_total = math.fsum(r[0] for r in rows)
    hat_total = math.fsum(r[2] for r in rows)
    reach = {
        w: math.fsum(r[0] for f, r in zip(crossed, rows) if f.src == w) / idle_total
        for w in dict.fromkeys(f.src for f in crossed)
    }
    total = []
    for x in layout.devents:
        singular = []
        weight = []
        for e, (through, hit, hat) in zip(crossed, rows):
            if e.devent != x:
                continue
            singular.append(reach[e.src] * (hit / through))
            weight.append(hat)
        total.append(math.fsum(singular) * (math.fsum(weight) / hat_total))
    return math.fsum(total)


def causal_effect_edge_level(
    ceg: Ceg, manipulation: StochasticManipulation, target: str
) -> float:
    """Edge-level decomposition: one term per intervened edge.

    Controlling an edge fixes its d-event conditional on arrival at its
    source, so the singular term is the plain conditional of the target
    given the edge in the conditioned idle graph.
    """
    (star, _, _), hat = _checked(ceg, manipulation, target)
    return _edge_value(_edge_rows(ceg, _IdleTable(ceg, target, star, screen=False), hat)[1])


def _edge_value(rows) -> float:
    """``causal_effect_edge_level`` from the decomposition table's rows."""
    hat_total = math.fsum(r[2] for r in rows)
    terms = []
    for through, hit, hat in rows:
        terms.append((hit / through) * (hat / hat_total))
    return math.fsum(terms)


# --- back-door verification ---------------------------------------------


def _as_blocks(ceg: Ceg, partition) -> tuple[tuple[frozenset, ...], tuple[str, ...]]:
    if isinstance(partition, BackdoorPartition):
        return partition.blocks, partition.labels
    blocks = tuple(frozenset(_resolve_edge(ceg, e) for e in b) for b in partition)
    return blocks, tuple(f"block {i}" for i in range(len(blocks)))


class _Layout(NamedTuple):
    """A checked w*, as every back-door table reads it.  A criterion column
    holds the mass meeting an intervened position, edge or (position,
    controlled d-event) pair, and ``half`` columns on, the part of it also
    hitting the target."""

    crossed: tuple[Edge, ...]  # w*'s out-edges in graph order: each intervened path uses one
    devents: tuple[str, ...]  # the controlled d-events labelling them, as first seen
    leak: Optional[Edge]  # the first edge in graph order outside w* that one of them labels
    columns: list[tuple[int, int, int]]  # per intervened edge: w, edge, (w, d)
    col: dict  # w, edge i or (w, d-event number) -> column, numbered as met
    half: int


def _layout(ceg: Ceg, star) -> _Layout:
    crossed = tuple(e for e in ceg.edges if e.src in star)
    number = {x: d for d, x in enumerate(dict.fromkeys(e.devent for e in crossed))}
    leak = next((e for e in ceg.edges if e.devent in number and e.src not in star), None)
    col: dict = {}
    columns = []
    for i, e in enumerate(crossed):
        keys = (e.src, i, (e.src, number[e.devent]))
        columns.append(tuple(col.setdefault(q, len(col)) for q in keys))
    return _Layout(crossed, tuple(number), leak, columns, col, len(col))


def _edge_sets(ceg: Ceg, target: str, layout: _Layout) -> Iterator[tuple[Edge, ...]]:
    """A back-door table's edge sets, bit 0 up: the target, each intervened
    edge, then each controlled d-event.  Lazy, so a prefix builds no
    d-event set."""
    yield ceg.edges_of_devent(target)
    yield from ((e,) for e in layout.crossed)
    yield from map(ceg.edges_of_devent, layout.devents)


def _decode(layout: _Layout, classes: dict[int, float]) -> tuple[dict, list]:
    """Each sink class's columns, None outside the intervened path set, and
    every class's mass summed per column, in the bit layout of
    ``_edge_sets``; higher bits are ignored."""
    crossed, col = layout.crossed, layout.col
    decoded, totals = dict.fromkeys(classes), [0.0] * (2 * layout.half)
    for mask, m in classes.items():
        edge_bit = (mask >> 1) & ((1 << len(crossed)) - 1)
        if not edge_bit:
            continue
        i = edge_bit.bit_length() - 1  # every intervened path crosses one edge
        w = crossed[i].src
        met = _bits(mask >> (1 + len(crossed)), len(layout.devents))
        cols = [*layout.columns[i][:2], *(col[w, d] for d in met if (w, d) in col)]
        if mask & 1:
            cols += [c + layout.half for c in cols]
        decoded[mask] = cols
        for c in cols:
            totals[c] += m
    return decoded, totals


def _comparisons(
    layout: _Layout, labels, totals, rows, tol: float
) -> Iterator[CriterionComparison]:
    """Every criterion comparison in report order: per intervened edge and
    block, criterion 1 then criterion 2."""
    hit = layout.half
    for e, (at_w, at_e, at_wd) in zip(layout.crossed, layout.columns):
        if totals[at_e] <= 0.0:  # an underflow; the total at w may be 0 too
            raise UndefinedConditional(f"the intervened paths through {e} have no mass")
        for label, row in zip(labels, rows):
            # criterion 1: block independent of the edge taken at w
            sides = {1: (row[at_w] / totals[at_w], row[at_e] / totals[at_e])}
            # criterion 2: target screened off from the edge within a block,
            # vacuous when no path of the block takes the edge
            if row[at_e] > 0.0:
                sides[2] = (row[at_wd + hit] / row[at_wd], row[at_e + hit] / row[at_e])
            for criterion in (1, 2):
                lhs, rhs = sides.get(criterion, (0.0, 0.0))
                yield CriterionComparison(
                    criterion, e.src, e.devent, e, label, lhs, rhs,
                    abs(lhs - rhs) <= tol, vacuous=criterion not in sides,
                )


def check_backdoor_partition(
    ceg: Ceg, w_star: Sequence[str], partition, target: str
) -> BackdoorReport:
    """Verify the two screening criteria for a candidate blocking partition.

    The partition must cover the intervened path set exactly, block by
    block, with no overlap.  Criterion 1 asks each block to be equally
    likely given arrival at an intervened position and given each edge
    leaving it; criterion 2 asks the target to be screened off from the
    edge choice once the block is known.  Comparisons whose conditioning
    event has no mass are vacuous and recorded as such; an intervened edge
    whose paths have none raises UndefinedConditional.  Every comparison is
    read from one kernel pass over the target, the intervened edges, the
    controlled d-events and the blocks.  ``w_star`` may be the
    ``Intervened`` of a check already made, which is not walked again.
    """
    _require_target(ceg, target)
    checked = w_star if isinstance(w_star, Intervened) else check_separate(ceg, w_star)
    blocks, labels = _as_blocks(ceg, partition)
    if not blocks:
        raise NotAPartition("no blocks given")
    table = _IdleTable(ceg, target, checked.star, groups=blocks)
    layout, totals, shift = table.layout, table.totals, len(table.edge_sets) - len(blocks)
    classes = [(_bits(mask >> shift, len(blocks)), cols, m)  # each class's blocks, columns, mass
               for mask, m in table.classes.items() if (cols := table.decoded[mask])]
    for j in range(len(blocks)):
        inside = [c for c in classes if j in c[0]]
        if not inside:
            raise NotAPartition("empty block")
        if any(c[0][0] < j for c in inside):
            raise NotAPartition("blocks overlap")
    if any(not c[0] for c in classes):
        raise NotAPartition("blocks do not cover the intervened path set")
    rows = [[0.0] * len(totals) for _ in blocks]  # per block, its classes' columns
    for in_blocks, cols, m in classes:
        row = rows[in_blocks[0]]
        for c in cols:
            row[c] += m
    comparisons = tuple(_comparisons(layout, labels, totals, rows, ceg.tolerance))
    return BackdoorReport(all(c.ok for c in comparisons), comparisons)


def backdoor_adjustment(
    ceg: Ceg, manipulation: StochasticManipulation, partition, target: str
) -> float:
    """Adjustment formula over a verified blocking partition.

    Requires the partition to pass both screening criteria; the value then
    matches the direct decompositions.  Raises ``PartitionNotValid`` when
    a criterion fails and ``UndefinedConditional`` when a required
    conditional has a zero-mass conditioning event.
    """
    checked, hat = _checked(ceg, manipulation, target)
    blocks, labels = _as_blocks(ceg, partition)
    report = check_backdoor_partition(ceg, checked, BackdoorPartition(blocks, labels), target)
    if not report.passed:
        bad = report.failures()[0]
        raise PartitionNotValid(
            f"criterion {bad.criterion} fails at {bad.edge} for {bad.block}:"
            f" {bad.lhs:.12g} != {bad.rhs:.12g}"
        )
    return _adjustment(ceg, checked.star, hat, blocks, target)


def _adjustment(ceg: Ceg, star, hat, blocks, target: str) -> float:
    """``backdoor_adjustment``'s formula, on a checked target and w*, the
    substituted factors and blocks that pass both criteria."""
    layout = _layout(ceg, star)
    sets = list(_edge_sets(ceg, target, layout))
    # one bit for every intervened edge together: a bit each would split
    # each class by edge, and its sums below would round otherwise
    sets[1 : 1 + len(layout.crossed)] = [layout.crossed]
    table = class_masses(ceg, [*sets, *blocks], (ceg.theta, hat))
    # idle masses of the intervened paths in block j, and of those passing
    # d-event d (also hitting the target); manipulated masses under "hat"
    mass: dict[tuple, float] = defaultdict(float)
    for mask, (m, m_hat) in table.items():
        if not mask & 2:  # outside the intervened path set
            continue
        (j,) = _bits(mask >> len(sets), len(blocks))
        mass["all"] += m
        mass["hat"] += m_hat
        mass["z", j] += m
        for d in _bits(mask >> 2, len(layout.devents)):
            mass["hat", d] += m_hat
            mass["xz", d, j] += m
            mass["xz", d, j, "hit"] += m if mask & 1 else 0.0
    terms = []
    for d, x in enumerate(layout.devents):
        weight_hat = mass["hat", d] / mass["hat"]
        for j in range(len(blocks)):
            if mass["xz", d, j] <= 0.0:
                raise UndefinedConditional(
                    f"no conditioned mass for d-event {x!r} within a block"
                )
            terms.append(
                (mass["xz", d, j, "hit"] / mass["xz", d, j])
                * (mass["z", j] / mass["all"])
                * weight_hat
            )
    return math.fsum(terms)


# --- candidate construction and search ----------------------------------


def partition_from_selectors(
    ceg: Ceg, kind: str, blocks: Sequence[Sequence[str]]
) -> BackdoorPartition:
    """Build a blocking partition from selector ids.

    ``kind`` is one of ``devents``, ``stages``, ``positions`` or ``edges``;
    each block is a list of ids of that kind and becomes the edge set they
    select: the d-event's edges, the out-edges of the stage's positions or
    of the position, or the edge itself.  Whether the blocks partition the
    intervened path set is checked with the criteria.
    """

    def edges_for(selector: str) -> tuple[Edge, ...]:
        if kind == "devents":
            return ceg.edges_of_devent(selector)
        if kind == "positions":
            if selector not in ceg.position_ids:
                raise PositionNotInCeg(f"unknown position {selector}")
            return ceg.out_edges(selector)
        if kind == "stages":
            members = [w for w in ceg.position_ids if ceg.stage_ids.get(w) == selector]
            if not members:
                raise UnknownSelector(f"unknown stage {selector!r}")
            return tuple(e for w in members for e in ceg.out_edges(w))
        if kind == "edges":
            return (_resolve_edge(ceg, selector),)
        raise UnknownSelector(f"unknown partition kind {kind!r}")

    built = []
    labels = []
    for ids in blocks:
        ids = list(ids)
        if not ids:
            raise NotAPartition("empty block")
        built.append(frozenset(e for selector in ids for e in edges_for(selector)))
        labels.append(",".join(str(i) for i in ids))
    return BackdoorPartition(tuple(built), tuple(labels), kind)


def _crossing_layers(ceg: Ceg, checked: Intervened) -> tuple[list[list[str]], int]:
    """Depth slices of the intervened paths that every one of them crosses
    exactly once, after its intervened position; and the number of
    intervened root-to-sink paths.

    A position's depth is its longest distance from the root along
    intervened paths, so depths rise strictly along each of them and no
    intervened path meets one slice twice.  A slice qualifies when all of
    it lies below w* and no edge of an intervened path leaves a shallower
    depth and lands deeper than the slice or in a sink: such an edge is
    exactly where some intervened path steps over the slice.
    """
    out, sinks = ceg._out, ceg.sinks
    star, below, above = checked
    depth = {ceg.root: 0}
    prefixes = {ceg.root: 1}  # intervened-path prefixes arriving
    steps = []  # the edges of the intervened paths
    paths = 0
    for w in ceg.order:
        if w not in depth:
            continue
        after = w in star or w in below
        for e in out[w]:
            if not (after or e.dst in above):
                continue  # the edge lies on no intervened path
            steps.append(e)
            if e.dst in sinks:
                paths += prefixes[w]
            else:
                depth[e.dst] = max(depth.get(e.dst, 0), depth[w] + 1)
                prefixes[e.dst] = prefixes.get(e.dst, 0) + prefixes[w]
    deepest = max(depth.values())
    stepped = [0] * (deepest + 2)  # per depth, edges stepping over it, as differences
    for e in steps:
        lo, hi = depth[e.src] + 1, deepest + 1 if e.dst in sinks else depth[e.dst]
        if lo < hi:
            stepped[lo] += 1
            stepped[hi] -= 1
    layers: list[list[str]] = [[] for _ in range(deepest + 1)]
    for w in ceg.position_ids:  # no depth is skipped: a longest path passes each
        if w in depth:
            layers[depth[w]].append(w)
    crossing = []
    over = 0
    for d, layer in enumerate(layers):
        over += stepped[d]
        if not over and all(w in below for w in layer):
            crossing.append(layer)
    return crossing, paths


def _partition(kind: str, edges, block, keys) -> BackdoorPartition:
    """A candidate's partition: its slice edges grouped by block, in slice
    order, each block labelled from its key (stage, colour value or edge)."""
    members: list[list[Edge]] = [[] for _ in keys]
    for e, j in zip(edges, block):
        members[j].append(e)
    if kind == "stages":
        labels = (
            f"{sid}:{'+'.join(dict.fromkeys(e.src for e in m))}"
            for sid, m in zip(keys, members)
        )
    elif kind == "colour":
        labels = (
            "+".join(dict.fromkeys(e.devent for e in m)) + f"@{value:.12g}"
            for value, m in zip(keys, members)
        )
    else:
        labels = map(str, keys)
    return BackdoorPartition(tuple(map(frozenset, members)), tuple(labels), kind)


def _grouping(d: int, edges, kind: str, keys: Sequence):
    """The candidate grouping slice edges by key, unless every edge has
    the same key."""
    number = dict(zip(dict.fromkeys(keys), count()))  # key -> block, as first met
    if len(number) > 1:
        block = tuple(map(number.__getitem__, keys))
        yield d, edges, block, partial(_partition, kind, edges, block, tuple(number))


def _colours(values: Sequence[float], tol: float) -> list[float]:
    """Each value's colour, the least value of its class.  In one dimension
    the closure of "within ``tol``" chains sorted neighbours whose gaps are
    at most ``tol``, so one pass over the sorted values finds every class."""
    colour, previous = {}, -math.inf
    for x in sorted(set(values)):
        colour[x] = least = x if x - previous > tol else least
        previous = x
    return list(map(colour.__getitem__, values))


def _candidates(
    ceg: Ceg, layers: Sequence[Sequence[str]]
) -> Iterator[tuple[int, tuple[Edge, ...], tuple[int, ...], Callable[[], BackdoorPartition]]]:
    """The search's candidates on the given crossing slices, in the order
    it tries them: first stage groupings of every slice, then
    shared-probability groupings, then single-edge blocks.

    Each is the slice index, the slice's out-edges, the block of each slice
    edge (blocks numbered as first met, so equal groupings give equal
    arrays) and a builder of the ``BackdoorPartition``, whose frozensets and
    labels only a candidate that passes the screen needs.
    """
    edge_layers = [tuple(e for w in layer for e in ceg.out_edges(w)) for layer in layers]
    for d, edges in enumerate(edge_layers):
        stages = [ceg.stage_ids.get(e.src, e.src) for e in edges]
        yield from _grouping(d, edges, "stages", stages)
    for d, edges in enumerate(edge_layers):
        # colour classes come from the idle model, not the conditioned
        # quotients: values equal within tolerance, named by the least
        colours = _colours(list(map(ceg.theta.__getitem__, edges)), ceg.tolerance)
        yield from _grouping(d, edges, "colour", colours)
    for d, edges in enumerate(edge_layers):
        yield from _grouping(d, edges, "edges", edges)


_UNIT = 2.0 ** -53  # unit roundoff of a double
_FLOOR = 2.0 ** -900  # the screen leaves a ratio over a smaller mass to the full check


def _rounding_margin(paths: int, positions: int, tol: float) -> float:
    """δ: a bound on how far the screen's |lhs - rhs| can exceed the value
    that the full check, or a per-slice kernel pass, computes for it.

    Every criterion mass is a sum of non-negative path products, formed
    with + and × only.  A term meets at most ``positions + 2``
    multiplications.  Every addition joins disjoint sets of intervened
    paths, so a term meets at most ``paths - 1`` additions in each of the
    forward pass, the backward pass and a row (an edge's combine, then the
    sum over a block's edges).  The screen's totals, the forward pass's
    sink classes summed, and a single-pass table have fewer.  With ``n``
    the sum of both counts, each mass carries a relative error of at most
    γ_n = nu/(1 - nu) and each ratio, a conditional probability at most 1,
    an absolute error of at most γ_(2n+1) (Higham 2002, Lemma 3.1 and
    §4.2).  Two such ratios per side of a comparison give 4γ_(2n+1); the
    spare γ and the ``tol`` term cover the rounding of the subtraction, of
    ``tol + δ`` and, since masses below ``_FLOOR`` are not judged, of any
    underflow.
    """
    n = 3 * paths + positions + 2
    if n >= 2**48:
        return math.inf
    ratio = (2 * n + 1) * _UNIT
    return 5 * ratio / (1 - ratio) + 4 * _UNIT * tol


class _IdleTable:
    """One forward kernel pass under θ over the target, the intervened edges
    and, for the screen, the controlled d-events: the routes read its column
    totals, the fine cut its sink classes, the screen all.  Without ``screen``
    no leaking d-event splits, and so rerounds, a route's (target, edge) class.
    A full check's table has these bits, then one bit per block (``groups``).

    Every intervened path crosses a slice exactly once, so every slice has
    the column totals; and the paths through slice edge s in a class have
    the mass forward[src(s)] × θ(s) × backward[dst(s)], summed over the
    classes that join to it.  A block's row, a slice edge's pairs and the
    backward pass are each computed when a comparison first needs them.
    """

    def __init__(self, ceg: Ceg, target: str, star, screen: bool = True, groups=()):
        layout = self.layout = _layout(ceg, star)
        k = len(layout.crossed)
        sets = _edge_sets(ceg, target, layout)
        self.edge_sets = [*(sets if screen else islice(sets, 1 + k)), *groups]
        self.ceg = ceg
        self.forward = forward_messages(ceg, self.edge_sets)
        self.classes = _sink_classes(ceg, self.forward)
        self.decoded, self.totals = _decode(layout, self.classes)
        # a slice edge's own bits: the target's and its controlled d-event's
        self.devent_bits = {x: 1 << (1 + k + d) for d, x in enumerate(layout.devents)}
        self.devent_bits[target] = self.devent_bits.get(target, 0) | 1
        self.combined: dict = {}  # slice edge -> its (column, mass) pairs

    @cached_property
    def backward(self) -> dict[str, dict[int, float]]:
        """The backward pass in the table's bit layout, the intervened
        edges' sets left empty: none lies below a slice."""
        sets, k = self.edge_sets, len(self.layout.crossed)
        return backward_messages(self.ceg, [sets[0], *([] for _ in range(k)), *sets[1 + k :]])

    def pairs(self, s: Edge) -> list[tuple[int, float]]:
        """The (column, mass) pairs of the intervened paths through slice
        edge ``s``, combined on first use."""
        pairs = self.combined.get(s)
        if pairs is not None:
            return pairs
        decoded = self.decoded
        crossed_bits = (1 << (1 + len(self.layout.crossed))) - 2
        bit, f = self.devent_bits.get(s.devent, 0), self.ceg.theta[s]
        tail = self.backward[s.dst].items()
        masses: dict[int, float] = {}
        for a, head in self.forward[s.src].items():
            if not a & crossed_bits:
                continue  # a prefix that missed w*
            head *= f
            for b, m in tail:
                m *= head
                for c in decoded[a | bit | b]:  # a sink class, decoded with the totals
                    masses[c] = masses.get(c, 0.0) + m
        pairs = self.combined[s] = list(masses.items())
        return pairs

    def _row(self, members) -> list[float]:
        """A block's columns: its slice edges' pairs summed."""
        row = [0.0] * len(self.totals)
        for s in members:
            for c, m in self.pairs(s):
                row[c] += m
        return row

    def passes(self, edges, block, limit: float) -> bool:
        """False when some comparison of the candidate that maps slice edge
        to ``block`` fails by more than ``limit``."""
        members: list[list[Edge]] = [[] for _ in range(max(block) + 1)]
        for s, j in zip(edges, block):
            members[j].append(s)
        rows: list = [None] * len(members)
        totals, hit = self.totals, self.layout.half
        for at_w, at_e, at_wd in self.layout.columns:
            at_w_total, at_e_total = totals[at_w], totals[at_e]
            judged = min(at_w_total, at_e_total) >= _FLOOR
            for j, row in enumerate(rows):
                if row is None:
                    row = rows[j] = self._row(members[j])
                # criterion 1, then criterion 2 where the block takes the edge
                if judged and abs(row[at_w] / at_w_total - row[at_e] / at_e_total) > limit:
                    return False
                through = row[at_e]
                if through >= _FLOOR and abs(
                    row[at_wd + hit] / row[at_wd] - row[at_e + hit] / through
                ) > limit:
                    return False
        return True


def search_backdoor_partition(
    ceg: Ceg, w_star: Sequence[str], target: str
) -> Optional[tuple[BackdoorPartition, BackdoorReport]]:
    """Look for a blocking partition among structurally natural candidates.

    Candidates are built from single-crossing slices of the conditioned
    graph, strictly downstream of the intervened positions: first stage
    groupings of a position slice, then shared-probability groupings of an
    edge slice, then single-edge blocks.  Returns the first candidate that
    passes both criteria, or ``None``.

    Every candidate maps the out-edges of one slice to blocks.  The screen
    (``_IdleTable.passes``) judges all of them from one forward pass, made
    at the first candidate or handed over by a query, and one backward
    pass, made at the first slice edge combined.  It skips a grouping tried
    on the same slice and rejects only a comparison that fails by more than
    its rounding margin.  Only a candidate that passes the screen is built
    and gets the full check (one more pass), whose report is returned;
    should that check fail, the search goes on.  ``w_star`` may be the
    ``Intervened`` of a check already made.
    """
    return _search(ceg, w_star, target, None)


def _search(ceg: Ceg, w_star, target: str, idle: Optional[_IdleTable]):
    """``search_backdoor_partition``, screening with ``idle`` when given."""
    _require_target(ceg, target)
    checked = w_star if isinstance(w_star, Intervened) else check_separate(ceg, w_star)
    layers, paths = _crossing_layers(ceg, checked)
    limit = ceg.tolerance + _rounding_margin(paths, len(ceg.position_ids), ceg.tolerance)
    tried = set()
    for d, edges, block, build in _candidates(ceg, layers):
        if (d, block) in tried:
            continue
        tried.add((d, block))
        idle = idle or _IdleTable(ceg, target, checked.star)
        if not idle.passes(edges, block, limit):
            continue
        candidate = build()
        report = check_backdoor_partition(ceg, checked, candidate, target)
        if report.passed:
            return candidate, report
    return None


def backdoor_verdict(
    ceg: Ceg,
    w_star: Sequence[str],
    target: str,
    kind: Optional[str] = None,
    blocks: Sequence[Sequence[str]] = (),
) -> tuple[Optional[BackdoorPartition], Optional[BackdoorReport]]:
    """The back-door step of a query: the search without ``kind``, else the
    full check of ``partition_from_selectors(ceg, kind, blocks)``.  Returns
    the partition and its report, ``(None, None)`` when the search finds
    nothing; ``w_star`` may be the ``Intervened`` of a check already made."""
    return _verdict(ceg, w_star, target, kind, blocks, None)


def _verdict(ceg: Ceg, w_star, target: str, kind, blocks, idle: Optional[_IdleTable]):
    """``backdoor_verdict``, its search screening with ``idle`` when given."""
    if kind is None:
        return _search(ceg, w_star, target, idle) or (None, None)
    partition = partition_from_selectors(ceg, kind, blocks)
    return partition, check_backdoor_partition(ceg, w_star, partition, target)


# --- the stochastic query plan --------------------------------------------


class StochasticAnswer(NamedTuple):
    """Every value a stochastic query reports."""

    kept: tuple[str, ...]  # the positions of the conditioned graph
    kept_edges: int  # and its edge count
    devent: float
    edge: float
    oracle: float
    adjustment: Optional[float]  # None without a verified partition
    spread: float  # largest minus least of the values above
    agree: bool  # the spread is within the graph's tolerance
    fine_cut: bool
    partition: Optional[BackdoorPartition]  # None when the search finds none
    report: Optional[BackdoorReport]


def stochastic_answer(
    ceg: Ceg,
    manipulation: StochasticManipulation,
    target: str,
    kind: Optional[str] = None,
    blocks: Sequence[Sequence[str]] = (),
) -> StochasticAnswer:
    """Every value of a stochastic query, each computed once.

    One validation, whose walk of w* every step reads, and one substitution.
    A default query (no partition supplied) makes these kernel passes: the
    idle table's forward pass under θ, read by both routes, the fine cut and
    the search's screen; one under θ̂ for the routes; the screen's backward
    pass at its first combine; one per full check; and two for the
    adjustment of the partition the back-door step has just verified.
    Faults raise in the order validation, conditioning, target, oracle, an
    intervened edge with no idle mass, a leak, selectors, back-door, adjustment.
    """
    checked = validate_stochastic(ceg, manipulation)
    star, hat = checked.star, substituted_theta(ceg, manipulation)
    _, kept, kept_edges = _conditioning(ceg, checked)
    _require_target(ceg, target)
    oracle = _brute_force(ceg, star, hat, target)
    idle = _IdleTable(ceg, target, star)
    _, rows, fine_cut = _edge_rows(ceg, idle, hat)
    devent = _devent_value(idle.layout, rows)
    edge = _edge_value(rows)
    partition, report = _verdict(ceg, checked, target, kind, blocks, idle)
    values = [devent, edge, oracle]
    adjustment = None
    if report is not None and report.passed:
        adjustment = _adjustment(ceg, star, hat, partition.blocks, target)
        values.append(adjustment)
    spread = max(values) - min(values)
    return StochasticAnswer(
        kept, len(kept_edges), devent, edge, oracle, adjustment, spread,
        spread <= ceg.tolerance, fine_cut, partition, report,
    )


# --- remedial mixtures ---------------------------------------------------


def remedial_breakdown(
    ceg: Ceg,
    record: RemedialRecord,
    prior: DirichletFloretPrior,
    target: str,
) -> list[tuple[float, frozenset[Edge], Optional[str], float]]:
    """Per-assignment rows of the remedial mixture.

    Each row is (weight, remedied edge set, hidden action id, effect); the
    effect is the idle target probability, computed once, when the
    assignment remedies nothing.  Remedied edges must be root-cause edges.
    """
    _require_target(ceg, target)
    causes = set(root_cause_edges(ceg))
    idle = None
    rows = []
    for weight, remedied, action in indicator_terms(record, ceg.tolerance):
        if not causes.issuperset(remedied):
            unknown = sorted(map(str, set(remedied) - causes))
            raise UnknownEdge(f"remedied edges outside the root causes: {unknown}")
        if not causes:
            raise ParseError("model declares no root causes")
        manipulation = _posterior_means(ceg, causes, remedied, prior)
        if manipulation is not None:
            effect = causal_effect_edge_level(ceg, manipulation, target)
        else:
            idle = effect = idle_target_mass(ceg, target) if idle is None else idle
        rows.append((weight, remedied, action, effect))
    return rows


def forced_edge_effect(ceg: Ceg, edge, target: str) -> float:
    """Target probability when one edge is forced to probability one.

    The intervened set is the forced edge's source position; paths outside
    it keep no mass after conditioning, paths avoiding the forced edge
    inside it get zero.  The forced vector weights the idle graph in one
    kernel pass, as a manipulation's vectors do; no graph is built.
    """
    _require_target(ceg, target)
    forced = _resolve_edge(ceg, edge)
    table = class_masses(
        ceg,
        [ceg.out_edges(forced.src), ceg.edges_of_devent(target)],
        (_forced_theta(ceg, forced),),
    )
    total = math.fsum(m for mask, (m,) in table.items() if mask & 1)
    if total <= 0.0:
        raise UndefinedConditional("forced path set has no mass")
    return math.fsum(m for mask, (m,) in table.items() if mask == 3) / total
