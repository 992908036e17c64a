"""Causal effect computation and back-door identification.

Three routes to the post-intervention probability of a target d-event:

* ``brute_force_effect``: exhaustive enumeration with the substitution
  formula, normalized over the intervened path set.  The reference value,
  and the only code here that lists paths.
* ``causal_effect_devent``: the controlled d-event decomposition, summing
  the singular effect of each controlled d-event against its manipulated
  probability.
* ``causal_effect_edge_level``: the same decomposition edge by edge, which
  stays exact even when one controlled d-event labels edges with different
  downstream behaviour.

Back-door machinery: verify a candidate partition of the intervened path
set against the two screening criteria, evaluate the adjustment formula,
and search a small family of structurally derived candidates.  Blocks are
edge sets.  The routes and the back-door checks each read the masses they
need from one pass of the propagation kernel (``ceg.class_masses``), and
``stochastic_answer`` computes a whole stochastic query from one validation
and one decomposition table.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .ceg import Ceg, _resolve_edge, class_masses
from .errors import (
    ControlledEventLeaksOutsideIntervention,
    NotAPartition,
    PartitionNotValid,
    PositionNotInCeg,
    UndefinedConditional,
    UnknownSelector,
    UnknownTarget,
)
from .event_tree import Edge
from .intervention import (
    DirichletFloretPrior,
    RemedialRecord,
    StochasticManipulation,
    _conditioned,
    assignment_to_indicators,
    check_separate,
    indicator_terms,
    manipulation_from_indicators,
    singular_manipulation,
    substituted_theta,
    validate_stochastic,
)
from .staging import tolerance_classes


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


def _crossed(ceg: Ceg, star: Sequence[str]) -> tuple[Edge, ...]:
    """Out-edges of the intervened positions in graph order.  Every
    intervened path uses exactly one of them."""
    return tuple(e for e in ceg.edges if e.src in star)


def _controlled(crossed: Sequence[Edge]) -> tuple[str, ...]:
    """The d-events labelling the intervened edges, in first-seen order."""
    return tuple(dict.fromkeys(e.devent for e in crossed))


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
    routes can be checked against it: one depth-first walk from the root
    carries each path's product, multiplied root to sink, and whether the
    path has passed w* and used a target edge.
    """
    return _brute_force(ceg, *_checked(ceg, manipulation, target), target)


def _brute_force(ceg: Ceg, star, factor, target: str) -> float:
    """``brute_force_effect``'s walk, on a checked target and w* and the
    substituted factors."""
    # per position, one (next position, factor, target edge?) step per edge
    steps = {
        w: [(e.dst, factor[e], e.devent == target) for e in ceg.out_edges(w)]
        for w in ceg.position_ids
    }
    weights = []
    hits = []
    stack = [(ceg.root, 1.0, False, False)]
    while stack:
        w, prod, passed, hit = stack.pop()
        out = steps.get(w)
        if out is None:  # a sink: the path is complete
            if passed:
                weights.append(prod)
                if hit:
                    hits.append(prod)
            continue
        passed = passed or w in star
        stack.extend((dst, prod * f, passed, hit or t) for dst, f, t in out)
    total = math.fsum(weights)
    if total <= 0.0:
        raise UndefinedConditional("intervened path set has no mass")
    return math.fsum(hits) / total


def _checked(ceg: Ceg, manipulation: StochasticManipulation, target: str):
    """Check a public route's target, then its manipulation; returns the
    checked w* and the substituted factors."""
    _require_target(ceg, target)
    star, _ = validate_stochastic(ceg, manipulation)
    return star, substituted_theta(ceg, manipulation)


def _edge_rows(ceg: Ceg, star, hat, target: str):
    """The decomposition routes' table, on a checked target and w* and the
    substituted factors: one kernel pass per weighting.

    Returns the out-edges of w*; per edge, the idle mass of the paths
    through it, the idle mass of those also hitting the target and their
    manipulated mass; and whether w* is a fine cut, which it is exactly
    when no path class lacks an intervened-edge bit.
    """
    crossed = _crossed(ceg, star)
    table = class_masses(
        ceg, [ceg.edges_of_devent(target), *([e] for e in crossed)], (ceg.theta, hat)
    )
    rows = [[0.0, 0.0, 0.0] for _ in crossed]
    fine_cut = True
    for mask, (idle, hat_mass) in table.items():
        if mask > 1:  # bit 0 is the target, the single higher bit the edge
            row = rows[mask.bit_length() - 2]
            row[0] += idle
            row[1] += idle if mask & 1 else 0.0
            row[2] += hat_mass
        else:
            fine_cut = False
    return crossed, rows, fine_cut


def causal_effect_devent(
    ceg: Ceg, manipulation: StochasticManipulation, target: str
) -> float:
    """Controlled d-event decomposition of the manipulated target mass.

    Every d-event labelling an intervened edge must label intervened edges
    only; its singular effect is the position-weighted conditional of the
    target given each of its edges, evaluated in the conditioned idle graph.
    """
    star, hat = _checked(ceg, manipulation, target)
    return _devent_value(ceg, star, *_edge_rows(ceg, star, hat, target)[:2])


def _devent_value(ceg: Ceg, star, crossed, rows) -> float:
    """``causal_effect_devent`` from the decomposition table."""
    controlled = dict.fromkeys(e.devent for e in crossed)
    for e in ceg.edges:
        if e.devent in controlled and e.src not in star:
            raise ControlledEventLeaksOutsideIntervention(
                f"d-event {e.devent!r} also labels {e}, outside the"
                " intervened florets"
            )
    idle_total = math.fsum(r[0] for r in rows)
    hat_total = math.fsum(r[2] for r in rows)
    reach = {
        w: math.fsum(r[0] for f, r in zip(crossed, rows) if f.src == w) / idle_total
        for w in star
    }
    total = []
    for x in controlled:
        singular = []
        weight = []
        for e, (through, hit, hat) in zip(crossed, rows):
            if e.devent != x:
                continue
            if through <= 0.0:
                raise UndefinedConditional(f"no conditioned mass through {e}")
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
    star, hat = _checked(ceg, manipulation, target)
    return _edge_value(*_edge_rows(ceg, star, hat, target)[:2])


def _edge_value(crossed, rows) -> float:
    """``causal_effect_edge_level`` from the decomposition table."""
    hat_total = math.fsum(r[2] for r in rows)
    terms = []
    for e, (through, hit, hat) in zip(crossed, rows):
        if through <= 0.0:
            raise UndefinedConditional(f"no conditioned mass through {e}")
        terms.append((hit / through) * (hat / hat_total))
    return math.fsum(terms)


# --- back-door verification ---------------------------------------------


def _as_blocks(ceg: Ceg, partition) -> tuple[tuple[frozenset, ...], tuple[str, ...]]:
    if isinstance(partition, BackdoorPartition):
        return partition.blocks, partition.labels
    blocks = tuple(frozenset(_resolve_edge(ceg, e) for e in b) for b in partition)
    return blocks, tuple(f"block {i}" for i in range(len(blocks)))


class _CriteriaTable(NamedTuple):
    """Intervened path classes of one kernel pass.  A column holds the mass
    meeting an intervened position, edge or (position, controlled d-event)
    pair, and ``half`` columns on, the part of it also hitting the target."""

    classes: list[tuple[list[int], list[int], float]]  # groups, columns, mass
    totals: list[float]  # every class summed per column
    columns: list[tuple[int, int, int]]  # per intervened edge: w, edge, (w, d)
    half: int


def _criteria_table(ceg: Ceg, target: str, crossed, groups) -> _CriteriaTable:
    """One kernel pass over the target, each intervened edge, each group
    (blocks or slice edges) and each controlled d-event."""
    devents = _controlled(crossed)
    table = class_masses(
        ceg,
        [
            ceg.edges_of_devent(target),
            *([e] for e in crossed),
            *groups,
            *(ceg.edges_of_devent(d) for d in devents),
        ],
    )
    k, g = len(crossed), len(groups)
    devent = {x: d for d, x in enumerate(devents)}
    col: dict = {}  # w, edge i or (w, d-event bit) -> column, numbered as met
    columns = []
    for i, e in enumerate(crossed):
        keys = (e.src, i, (e.src, devent[e.devent]))
        columns.append(tuple(col.setdefault(q, len(col)) for q in keys))
    half = len(col)
    totals = [0.0] * (2 * half)
    classes = []
    for mask, (m,) in table.items():
        edge_bit = (mask >> 1) & ((1 << k) - 1)
        if not edge_bit:  # outside the intervened path set
            continue
        i = edge_bit.bit_length() - 1  # every intervened path crosses one edge
        w = crossed[i].src
        met = _bits(mask >> (1 + k + g), len(devents))  # controlled d-events
        cols = [*columns[i][:2], *(col[w, d] for d in met if (w, d) in col)]
        if mask & 1:
            cols += [c + half for c in cols]
        for c in cols:
            totals[c] += m
        classes.append((_bits(mask >> (1 + k), g), cols, m))
    return _CriteriaTable(classes, totals, columns, half)


def _criteria_masses(table: _CriteriaTable, block, count: int) -> list[list[float]]:
    """Per block, the table's columns over the classes in it, from classes
    that each lie in one block: ``block[s]`` is the block of group s."""
    rows = [[0.0] * len(table.totals) for _ in range(count)]
    for groups, cols, m in table.classes:
        row = rows[block[groups[0]]]
        for c in cols:
            row[c] += m
    return rows


def _comparisons(
    crossed, labels, table: _CriteriaTable, rows, tol: float
) -> Iterator[CriterionComparison]:
    """Every criterion comparison in report order: per intervened edge and
    block, criterion 1 then criterion 2."""
    totals, hit = table.totals, table.half
    for e, (at_w, at_e, at_wd) in zip(crossed, table.columns):
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
    event has no mass are vacuous and recorded as such.  Every comparison
    is read from one kernel pass over the target, the intervened edges,
    the blocks and the controlled d-events.
    """
    _require_target(ceg, target)
    star, _ = check_separate(ceg, w_star)
    blocks, labels = _as_blocks(ceg, partition)
    return _check_blocks(ceg, star, blocks, labels, target)


def _check_blocks(ceg: Ceg, star, blocks, labels, target: str) -> BackdoorReport:
    """``check_backdoor_partition`` on a checked target and w*."""
    if not blocks:
        raise NotAPartition("no blocks given")
    crossed = _crossed(ceg, star)
    table = _criteria_table(ceg, target, crossed, blocks)
    for j in range(len(blocks)):
        inside = [c for c in table.classes if j in c[0]]
        if not inside:
            raise NotAPartition("empty block")
        if any(c[0][0] < j for c in inside):
            raise NotAPartition("blocks overlap")
    if any(not c[0] for c in table.classes):
        raise NotAPartition("blocks do not cover the intervened path set")
    rows = _criteria_masses(table, range(len(blocks)), len(blocks))
    comparisons = tuple(_comparisons(crossed, labels, table, rows, ceg.tolerance))
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
    star, hat = _checked(ceg, manipulation, target)
    blocks, labels = _as_blocks(ceg, partition)
    report = _check_blocks(ceg, star, blocks, labels, target)
    if not report.passed:
        bad = report.failures()[0]
        raise PartitionNotValid(
            f"criterion {bad.criterion} fails at {bad.edge} for {bad.block}:"
            f" {bad.lhs:.12g} != {bad.rhs:.12g}"
        )
    return _adjustment(ceg, star, hat, blocks, target)


def _adjustment(ceg: Ceg, star, hat, blocks, target: str) -> float:
    """``backdoor_adjustment``'s formula, on a checked target and w*, the
    substituted factors and blocks that pass both criteria."""
    crossed = _crossed(ceg, star)
    devents = _controlled(crossed)
    table = class_masses(
        ceg,
        [
            ceg.edges_of_devent(target),
            crossed,
            *blocks,
            *(ceg.edges_of_devent(d) for d in devents),
        ],
        (ceg.theta, hat),
    )
    # idle masses of the intervened paths in block j, and of those passing
    # d-event d (also hitting the target); manipulated masses under "hat"
    mass: dict[tuple, float] = defaultdict(float)
    for mask, (m, m_hat) in table.items():
        if not mask & 2:  # outside the intervened path set
            continue
        (j,) = _bits(mask >> 2, len(blocks))
        mass["all"] += m
        mass["hat"] += m_hat
        mass["z", j] += m
        for d in _bits(mask >> (2 + len(blocks)), len(devents)):
            mass["hat", d] += m_hat
            mass["xz", d, j] += m
            mass["xz", d, j, "hit"] += m if mask & 1 else 0.0
    terms = []
    for d, x in enumerate(devents):
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


def _crossing_layers(ceg: Ceg, star: Sequence[str], below: set) -> list[list[str]]:
    """Depth slices of the intervened paths that every one of them crosses
    exactly once, after its intervened position.

    A position's depth is its longest distance from the root along
    intervened paths, so no intervened path meets one slice twice.  A slice
    qualifies when all of it lies below w* and every intervened path
    crosses it; the AND of the intervened path classes holds the crossed
    slices.
    """
    above = set(star)  # w* and the positions from which it can be reached
    for w in reversed(ceg.order):
        if any(e.dst in above for e in ceg.out_edges(w)):
            above.add(w)
    depth = {ceg.root: 0}
    for w in ceg.order:
        if w not in depth:
            continue
        for e in ceg.out_edges(w):
            # the edge lies on an intervened path
            if e.dst not in ceg.sinks and (w in star or w in below or e.dst in above):
                depth[e.dst] = max(depth.get(e.dst, 0), depth[w] + 1)
    layers: list[list[str]] = [[] for _ in range(max(depth.values()) + 1)]
    for w in ceg.position_ids:  # no depth is skipped: a longest path passes each
        if w in depth:
            layers[depth[w]].append(w)
    crossing = [[e for w in layer for e in ceg.out_edges(w)] for layer in layers]
    table = class_masses(ceg, [_crossed(ceg, star), *crossing])
    common = -1
    for mask in table:
        if mask & 1:
            common &= mask
    return [
        layer
        for d, layer in enumerate(layers)
        if (common >> (d + 1)) & 1 and all(w in below for w in layer)
    ]


def _candidates(
    ceg: Ceg, star: Sequence[str], below: set
) -> Iterator[tuple[int, tuple[Edge, ...], BackdoorPartition]]:
    """The search's candidates in the order it tries them, built as they
    are reached, each with the index and the out-edges of the crossing
    slice whose edges its blocks group: first stage groupings of every
    slice, then shared-probability groupings, then single-edge blocks."""
    layers = _crossing_layers(ceg, star, below)
    edge_layers = [tuple(e for w in layer for e in ceg.out_edges(w)) for layer in layers]
    for d, layer in enumerate(layers):
        groups: dict[str, list[str]] = {}
        for wid in layer:
            groups.setdefault(ceg.stage_ids.get(wid, wid), []).append(wid)
        if len(groups) < 2:
            continue
        blocks = tuple(
            frozenset(e for wid in m for e in ceg.out_edges(wid))
            for m in groups.values()
        )
        labels = tuple(f"{sid}:{'+'.join(m)}" for sid, m in groups.items())
        yield d, edge_layers[d], BackdoorPartition(blocks, labels, "stages")

    for d, edges in enumerate(edge_layers):
        # colour classes come from the idle model, not the conditioned
        # quotients: values equal within tolerance, named by the least
        keys = {e: ((), (ceg.theta[e],)) for e in edges}
        least = tolerance_classes(keys.values(), ceg.tolerance)
        groups: dict[float, list[Edge]] = {}
        for e in edges:
            groups.setdefault(least[keys[e]][1][0], []).append(e)
        if len(groups) < 2:
            continue
        blocks = tuple(frozenset(m) for m in groups.values())
        labels = tuple(
            "+".join(dict.fromkeys(e.devent for e in m)) + f"@{value:.12g}"
            for value, m in groups.items()
        )
        yield d, edges, BackdoorPartition(blocks, labels, "colour")

    for d, edges in enumerate(edge_layers):
        if len(edges) < 2:
            continue
        blocks = tuple(frozenset([e]) for e in edges)
        labels = tuple(str(e) for e in edges)
        yield d, edges, BackdoorPartition(blocks, labels, "edges")


def search_backdoor_partition(
    ceg: Ceg, w_star: Sequence[str], target: str
) -> Optional[tuple[BackdoorPartition, BackdoorReport]]:
    """Look for a blocking partition among structurally natural candidates.

    Candidates are built from single-crossing slices of the conditioned
    graph, strictly downstream of the intervened positions: first stage
    groupings of a position slice, then shared-probability groupings of an
    edge slice, then single-edge blocks.  Returns the first candidate that
    passes both criteria, or ``None``.

    Every candidate groups the out-edges of one slice, and every
    intervened path takes exactly one of them.  So one kernel pass per
    slice, over the target, the intervened edges, each slice edge and the
    controlled d-events, screens all of the slice's candidates: each maps
    slice edge to block and stops at its first failing comparison.  Only a
    candidate that passes the screen gets the full check, whose report is
    returned; should that check fail (rounding at the tolerance), the
    search goes on.
    """
    _require_target(ceg, target)
    star, below = check_separate(ceg, w_star)
    crossed = _crossed(ceg, star)
    tables: dict[int, _CriteriaTable] = {}  # per slice, built on first use
    for d, edges, candidate in _candidates(ceg, star, below):
        if d not in tables:
            tables[d] = _criteria_table(ceg, target, crossed, [[e] for e in edges])
        table, labels = tables[d], candidate.labels
        block_of = {e: j for j, block in enumerate(candidate.blocks) for e in block}
        block = [block_of[e] for e in edges]  # per slice edge
        rows = _criteria_masses(table, block, len(labels))
        screen = _comparisons(crossed, labels, table, rows, ceg.tolerance)
        if not all(c.ok for c in screen):
            continue
        report = _check_blocks(ceg, star, candidate.blocks, labels, target)
        if report.passed:
            return candidate, report
    return None


# --- the stochastic query plan --------------------------------------------


class StochasticAnswer(NamedTuple):
    """Every value a stochastic query reports."""

    manipulated: Ceg
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

    One validation, one substitution and one decomposition table, whose keys
    also decide the fine cut; the adjustment reads the partition the
    back-door check (of ``partition_from_selectors(ceg, kind, blocks)``) or
    search (without ``kind``) has just verified.  Faults raise in the order
    validation, conditioning, target, oracle, d-event route, edge-level
    route, partition selectors, back-door, adjustment.
    """
    checked = validate_stochastic(ceg, manipulation)
    star, hat = checked.star, substituted_theta(ceg, manipulation)
    manipulated = _conditioned(ceg, checked, hat)
    _require_target(ceg, target)
    oracle = _brute_force(ceg, star, hat, target)
    crossed, rows, fine_cut = _edge_rows(ceg, star, hat, target)
    devent = _devent_value(ceg, star, crossed, rows)
    edge = _edge_value(crossed, rows)
    if kind is None:
        partition, report = search_backdoor_partition(ceg, star, target) or (None, None)
    else:
        partition = partition_from_selectors(ceg, kind, blocks)
        report = check_backdoor_partition(ceg, star, partition, target)
    values = [devent, edge, oracle]
    adjustment = None
    if report is not None and report.passed:
        adjustment = _adjustment(ceg, star, hat, partition.blocks, target)
        values.append(adjustment)
    spread = max(values) - min(values)
    return StochasticAnswer(
        manipulated, devent, edge, oracle, adjustment, spread,
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
    effect is the idle target probability when the assignment remedies
    nothing.
    """
    _require_target(ceg, target)
    rows = []
    for weight, remedied, action in indicator_terms(record, ceg.tolerance):
        indicators = assignment_to_indicators(ceg, remedied)
        manipulation = manipulation_from_indicators(ceg, indicators, prior)
        if manipulation is None:
            effect = idle_target_mass(ceg, target)
        else:
            effect = causal_effect_edge_level(ceg, manipulation, target)
        rows.append((weight, remedied, action, effect))
    return rows


def expected_effect_imperfect(
    ceg: Ceg,
    record: RemedialRecord,
    prior: DirichletFloretPrior,
    target: str,
) -> float:
    """Expected manipulated target probability under an uncertain remedy.

    Mixes the per-assignment effects by the indicator distribution the
    record induces.  A perfect record collapses to a single assignment;
    an imperfect or uncertain one averages over the compatible ones.
    """
    return _mixture_effect(remedial_breakdown(ceg, record, prior, target))


def _mixture_effect(rows) -> float:
    """The effects of ``remedial_breakdown`` rows mixed by their weights."""
    return math.fsum(w * eff for w, _, _, eff in rows)


def forced_edge_effect(ceg: Ceg, edge, target: str) -> float:
    """Target probability when one edge is forced to probability one.

    The intervened set is the forced edge's source position; paths outside
    it keep no mass after conditioning, paths avoiding the forced edge
    inside it get zero.
    """
    _require_target(ceg, target)
    forced = _resolve_edge(ceg, edge)
    graph = singular_manipulation(ceg, forced)
    table = class_masses(
        graph, [graph.out_edges(forced.src), graph.edges_of_devent(target)]
    )
    total = math.fsum(m for mask, (m,) in table.items() if mask & 1)
    if total <= 0.0:
        raise UndefinedConditional("forced path set has no mass")
    return math.fsum(m for mask, (m,) in table.items() if mask == 3) / total
