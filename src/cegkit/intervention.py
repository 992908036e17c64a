"""Interventions on a chain event graph.

A stochastic manipulation replaces the transition vector of each intervened
position with a new interior vector; everything upstream keeps its idle
probabilities (no renormalization), everything downstream is untouched, and
positions sharing a parent with an intervened one simply lose their mass
through that parent's replacement vector.  No root-to-sink path may pass
through two intervened positions.

Remedial maintenance records drive interventions indirectly: a record
classifies as Perfect, Imperfect or Uncertain, yields a distribution over
remedied-cause indicator vectors, and the Dirichlet floret priors updated by
those indicators provide concrete replacement vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .ceg import Ceg, _resolve_edge
from .errors import (
    EmptyInterventionSet,
    IdenticalTheta,
    LengthMismatch,
    MissingConditional,
    NotNormalized,
    OutOfOpenInterval,
    OverlappingIntervention,
    ParseError,
    PositionNotInCeg,
    UndefinedConditional,
    UnknownEdge,
)
from .event_tree import DEFAULT_TOLERANCE, Edge, validate_vector
from .model_io import _as_float, _is_number


@dataclass(frozen=True)
class StochasticManipulation:
    """Replacement vectors keyed by intervened position, in edge order."""

    theta_hat: Mapping[str, tuple[float, ...]]

    @property
    def intervened_positions(self) -> tuple[str, ...]:
        return tuple(self.theta_hat)


@dataclass(frozen=True)
class DirichletFloretPrior:
    """Per-position concentration vectors and remedy strengths, edge order."""

    alpha: Mapping[str, tuple[float, ...]]
    eta: Mapping[str, tuple[float, ...]]

    def __post_init__(self):
        for name, table in (("alpha", self.alpha), ("eta", self.eta)):
            for w, vec in table.items():
                if not all(0.0 < x < math.inf for x in vec):  # NaN fails too
                    raise OutOfOpenInterval(
                        f"{name}[{w}] must be finite and strictly positive"
                    )


class RemedyClass(Enum):
    PERFECT = "perfect"
    IMPERFECT = "imperfect"
    UNCERTAIN = "uncertain"


@dataclass(frozen=True)
class HiddenAction:
    """One unrecorded action hypothesis with its indicator outcomes."""

    id: str
    prob: float  # p(action | record)
    outcomes: tuple[tuple[frozenset, float], ...]  # (remedied edges, prob)


@dataclass(frozen=True)
class RemedialRecord:
    """A maintenance log entry.

    ``remedy`` is None when no remedy was recorded.  ``delta`` is the
    observed effectiveness indicator, None when unobserved.  ``indicators``
    is the remedied-cause edge set the recorded remedy fixes when it works.
    ``actions`` carry the hidden-action mixture used when the remedy did not
    work or was not recorded; ``p_delta`` is the prior that it worked, in [0, 1].
    """

    remedy: Optional[str]
    delta: Optional[int] = None
    indicators: Optional[frozenset] = None
    actions: tuple[HiddenAction, ...] = ()
    p_delta: Optional[float] = None

    def __post_init__(self):
        if self.p_delta is not None and not 0.0 <= self.p_delta <= 1.0:
            raise OutOfOpenInterval(f"p_delta {self.p_delta!r} outside [0, 1]")


def classify_remedy(record: RemedialRecord) -> RemedyClass:
    if record.remedy is None:
        return RemedyClass.UNCERTAIN
    if record.delta == 1:
        return RemedyClass.PERFECT
    if record.delta == 0:
        return RemedyClass.IMPERFECT
    return RemedyClass.UNCERTAIN


def _action_terms(
    record: RemedialRecord, tolerance: float
) -> list[tuple[float, frozenset, str]]:
    if not record.actions:
        raise MissingConditional(
            "record needs hidden-action tables to explain an unremedied cause"
        )
    for a in record.actions:  # each in [0, 1] first, so no sum below overflows
        named = [("probability", a.prob), *(("outcome probability", q) for _, q in a.outcomes)]
        for what, p in named:
            if not 0.0 <= p <= 1.0:
                raise OutOfOpenInterval(f"action {a.id!r}: {what} {p!r} outside [0, 1]")
    total = math.fsum(a.prob for a in record.actions)
    if abs(total - 1.0) > tolerance:
        raise NotNormalized(f"hidden-action probabilities sum to {total!r}")
    terms = []
    for action in record.actions:
        dist = math.fsum(p for _, p in action.outcomes)
        if abs(dist - 1.0) > tolerance:
            raise NotNormalized(
                f"indicator outcomes of action {action.id!r} sum to {dist!r}"
            )
        for assignment, p in action.outcomes:
            terms.append((action.prob * p, assignment, action.id))
    return terms


def indicator_terms(
    record: RemedialRecord, tolerance: float = DEFAULT_TOLERANCE
) -> list[tuple[float, frozenset, Optional[str]]]:
    """Weighted (probability, remedied edges, action) outcomes of a record.

    Perfect records give the recorded remedy's point mass; Imperfect records
    mix over hidden actions; Uncertain records mix both, weighted by the
    prior that the recorded (or unrecorded) remedy worked.  Hidden-action
    and outcome probabilities must each lie in [0, 1] and sum to one within
    ``tolerance``.
    """
    kind = classify_remedy(record)
    if kind is RemedyClass.PERFECT:
        if record.indicators is None:
            raise MissingConditional("perfect remedy needs its indicator vector")
        return [(1.0, record.indicators, None)]
    if kind is RemedyClass.IMPERFECT:
        return _action_terms(record, tolerance)
    # uncertain: no point mass is asserted from the remedy alone
    p_delta = record.p_delta
    if p_delta is None:
        p_delta = 0.0 if record.indicators is None else None
    if p_delta is None:
        raise MissingConditional("uncertain remedy with indicators needs p_delta")
    terms: list[tuple[float, frozenset, Optional[str]]] = []
    if p_delta > 0.0:
        if record.indicators is None:
            raise MissingConditional("p_delta > 0 needs an indicator vector")
        terms.append((p_delta, record.indicators, None))
    if p_delta < 1.0:
        terms.extend(
            (w * (1.0 - p_delta), assignment, a)
            for w, assignment, a in _action_terms(record, tolerance)
        )
    return terms


# -- indicator plumbing -----------------------------------------------------

def root_cause_edges(ceg: Ceg) -> tuple[Edge, ...]:
    """Edges labelled by root-cause d-events, in graph order."""
    causes = set(ceg.root_causes)
    return tuple(e for e in ceg.edges if e.devent in causes)


def manipulation_from_indicators(
    ceg: Ceg, indicators: Mapping[Edge, int], prior: DirichletFloretPrior
) -> Optional[StochasticManipulation]:
    """Replacement vectors as the updated Dirichlet means.

    The indicator domain must be exactly the root-cause edges, each 0 or
    1.  Returns None when no position is intervened: nothing is remedied,
    or every updated mean equals its idle vector.
    """
    domain = set(root_cause_edges(ceg))
    if not domain:
        raise ParseError("model declares no root causes")
    given = set(indicators)
    if given != domain:
        missing = sorted(str(e) for e in domain - given)
        extra = sorted(str(e) for e in given - domain)
        raise UnknownEdge(
            f"indicator domain mismatch: missing {missing}, unexpected {extra}"
        )
    for e, value in indicators.items():
        if value not in (0, 1):
            raise ParseError(f"indicator for {e} must be 0 or 1")
    remedied = {e for e, value in indicators.items() if value == 1}
    return _posterior_means(ceg, domain, remedied, prior)


def _posterior_means(
    ceg: Ceg, domain, remedied, prior: DirichletFloretPrior
) -> Optional[StochasticManipulation]:
    """The updated Dirichlet mean of each position owning an edge of
    ``remedied``, a checked subset of the root-cause edges ``domain``, in
    graph order: alpha plus eta on every unremedied edge, normalised.  A
    mean equal to the position's idle vector intervenes on nothing and is
    left out; None when no position is left."""
    owners = {e.src for e in remedied}
    theta_hat = {}
    for w in filter(owners.__contains__, ceg.position_ids):
        edges = ceg.out_edges(w)
        missing = [e for e in edges if e not in domain]
        if missing:
            raise MissingConditional(
                f"position {w} mixes cause and non-cause edges:"
                f" {sorted(map(str, missing))}"
            )
        alpha, eta = prior.alpha.get(w), prior.eta.get(w)
        if alpha is None or eta is None:
            raise MissingConditional(f"no Dirichlet prior for position {w}")
        if len(edges) != len(alpha) or len(eta) != len(alpha):
            raise LengthMismatch(
                f"position {w}: indicator length {len(edges)} against alpha length"
                f" {len(alpha)}"
            )
        vec = [a + h * (1.0 - float(e in remedied)) for a, h, e in zip(alpha, eta, edges)]
        try:
            total = math.fsum(vec)
            if total == math.inf:  # fsum raises only when finite terms overflow
                raise OverflowError
        except OverflowError:
            raise OutOfOpenInterval(
                f"position {w}: updated Dirichlet parameters sum past the float range"
            ) from None
        mean = tuple(x / total for x in vec)
        if mean != ceg.theta_vector(w):
            theta_hat[w] = mean
    return StochasticManipulation(theta_hat) if theta_hat else None


# -- manipulations ----------------------------------------------------------

def singular_manipulation(ceg: Ceg, edge) -> Ceg:
    """Force one edge: its probability becomes 1, its siblings 0.

    Every other floret keeps its idle vector, so path probabilities still
    sum to one over the whole graph.
    """
    target = _resolve_edge(ceg, edge)
    name = f"{ceg.name}+force({target})" if ceg.name else f"force({target})"
    return replace(ceg, theta=_forced_theta(ceg, target), interior=False, name=name)


def _forced_theta(ceg: Ceg, target: Edge) -> dict[Edge, float]:
    """The graph's transition probabilities with ``target`` forced: 1 on
    it, 0 on its siblings."""
    theta = dict(ceg.theta)
    for e in ceg.out_edges(target.src):
        theta[e] = 1.0 if e == target else 0.0
    return theta


class Intervened(NamedTuple):
    """A checked intervened set: w* in graph order, the positions and sinks
    below it, and w* with the positions that can reach it."""

    star: tuple[str, ...]
    below: set[str]
    above: set[str]


def check_separate(ceg: Ceg, w_star: Iterable[str]) -> Intervened:
    """The one check of an intervened set w*.

    Raises EmptyInterventionSet for an empty w*, PositionNotInCeg for the
    first unknown position, and OverlappingIntervention when a path passes
    two positions of w*: one pass down the topological order, with no
    masses, finds what lies below w*, where an overlap is a position of w*
    below another; one pass up finds what lies above it.
    """
    listed = dict.fromkeys(w_star)
    if not listed:
        raise EmptyInterventionSet("no position is intervened")
    # out_edges raises PositionNotInCeg, in the order w* lists positions
    below = {e[1] for w in listed for e in ceg.out_edges(w)}
    out, above = ceg._out, set(listed)
    for w in ceg.order:  # parents first: a position below w* is known when met
        if w in below:
            if w in listed:
                raise OverlappingIntervention(
                    "a root-to-sink path passes through two intervened positions"
                )
            below.update(e[1] for e in out[w])
    for w in reversed(ceg.order):
        if w not in below and any(e[1] in above for e in out[w]):
            above.add(w)
    star = tuple(filter(listed.__contains__, ceg.position_ids))
    return Intervened(star, below, above)


def substituted_theta(ceg: Ceg, manipulation: StochasticManipulation) -> dict:
    """The graph's transition probabilities with each intervened floret
    replaced by its new vector."""
    theta = dict(ceg.theta)
    for w, vec in manipulation.theta_hat.items():
        theta.update(zip(ceg.out_edges(w), vec))
    return theta


def validate_stochastic(ceg: Ceg, manipulation: StochasticManipulation) -> Intervened:
    """Check a stochastic manipulation against its graph.

    Checks w* first (``check_separate``), then each replacement vector.
    Raises EmptyInterventionSet, PositionNotInCeg, OverlappingIntervention,
    LengthMismatch, NotNormalized, OutOfOpenInterval or IdenticalTheta;
    returns the checked w*.
    """
    checked = check_separate(ceg, manipulation.theta_hat)
    for w, vec in manipulation.theta_hat.items():
        validate_vector(
            f"position {w}", ceg.out_edges(w), vec, ceg.tolerance, "replacement"
        )
        if tuple(vec) == ceg.theta_vector(w):
            raise IdenticalTheta(f"position {w}: replacement equals idle vector")
    return checked


def conditioned_ceg(
    ceg: Ceg,
    w_star: Sequence[str],
    manipulation: Optional[StochasticManipulation] = None,
) -> Ceg:
    """Restrict to the paths through ``w_star`` and renormalize.

    Every retained transition gets the conditional probability of its edge
    given arrival at its source and passage through the intervened set:
    forward times backward mass of the edge over that of its source.  Above
    w* this is the idle factor times the ratio of the chances of still
    reaching w*; at w* (replacement vector, under a manipulation) and below
    it the factor stands.  With ``w_star = {root}`` and no manipulation
    this is the identity.
    """
    if manipulation is None:
        checked, hat, tag = check_separate(ceg, w_star), ceg.theta, "conditioned"
    else:
        checked = validate_stochastic(ceg, manipulation)
        if set(checked.star) != set(w_star):
            raise PositionNotInCeg(
                "manipulation and intervened set name different positions"
            )
        hat, tag = substituted_theta(ceg, manipulation), "manipulated"
    reach, retained, edges = _conditioning(ceg, checked)
    theta = {
        e: ceg.theta[e] * reach[e.dst] / reach[e.src] if e.dst in reach else hat[e]
        for e in edges
    }
    return replace(
        ceg,
        position_ids=retained,
        members={w: ceg.members[w] for w in retained},
        edges=tuple(edges),
        theta=theta,
        stage_ids={w: ceg.stage_ids[w] for w in retained},
        interior=False,
        name=f"{ceg.name}+{tag}" if ceg.name else tag,
    )


def _conditioning(ceg: Ceg, checked: Intervened) -> tuple[dict, tuple, list]:
    """What conditioning on a checked w* keeps, read off the check with no
    graph built: the edges leaving w* or a position below it and those
    entering w* or a position above it, and their sources in graph order;
    and the chance of going on to pass w*, from w* and each position above
    it.  A zero chance there (an underflow, or zero factors on a graph that
    is not interior) raises UndefinedConditional, naming the source of the
    first edge, in graph order, whose chance falls from positive to zero."""
    star, below, above = checked
    theta, out = ceg.theta, ceg._out
    reach = dict.fromkeys(star, 1.0)
    for w in reversed(ceg.order):  # children first
        if w in above and w not in reach:
            reach[w] = math.fsum(theta[e] * reach.get(e[1], 0.0) for e in out[w])
    after = below.union(star)
    edges = [e for e in ceg.edges if e[0] in after or e[1] in above]
    if 0.0 in reach.values():
        for e in edges:
            if reach.get(e.src) == 0.0 and reach[e.dst] > 0.0:
                raise UndefinedConditional(
                    f"chance of reaching the intervened positions from {e.src}"
                    " underflows to zero"
                )
    sources = {e[0] for e in edges}
    return reach, tuple(filter(sources.__contains__, ceg.position_ids)), edges


def record_from_raw(ceg: Ceg, raw: Mapping) -> RemedialRecord:
    """Resolve a record object from an intervention document.

    Edge references become graph edges; hidden actions keep their listed
    order so mixtures stay deterministic.
    """

    def edge_set(refs, where: str) -> frozenset:
        if not isinstance(refs, (list, tuple)) or not all(
            isinstance(r, str) for r in refs
        ):
            raise ParseError(f"{where} must be a list of edge references")
        return frozenset(_resolve_edge(ceg, r) for r in refs)

    def number(entry: Mapping, key: str, where: str) -> float:
        value = entry.get(key, 0.0)
        if not _is_number(value):
            raise ParseError(f"{where} must be a number")
        return _as_float(value)

    def entries(value, where: str) -> list:
        if not isinstance(value, (list, tuple)):
            raise ParseError(f"{where} must be a list")
        return value

    remedy = raw.get("remedy")
    if remedy is not None and not isinstance(remedy, str):
        raise ParseError("remedy must be a string or null")
    delta = raw.get("delta")
    if isinstance(delta, bool) or delta not in (None, 0, 1):
        raise ParseError("delta must be 0, 1 or null")
    indicators = raw.get("indicators")
    if indicators is not None:
        indicators = edge_set(indicators, "indicators")
    p_delta = raw.get("p_delta")
    if p_delta is not None:
        p_delta = number(raw, "p_delta", "p_delta")
    actions = []
    for i, entry in enumerate(entries(raw.get("actions", []), "actions")):
        if not isinstance(entry, Mapping):
            raise ParseError(f"actions[{i}] must be an object")
        outcomes = []
        where = f"actions[{i}].outcomes"
        for j, out in enumerate(entries(entry.get("outcomes", []), where)):
            if not isinstance(out, Mapping):
                raise ParseError(f"actions[{i}].outcomes[{j}] must be an object")
            outcomes.append(
                (
                    edge_set(
                        out.get("remedied", ()),
                        f"actions[{i}].outcomes[{j}].remedied",
                    ),
                    number(out, "prob", f"actions[{i}].outcomes[{j}].prob"),
                )
            )
        if not isinstance(entry.get("id", ""), str):
            raise ParseError(f"actions[{i}].id must be a string")
        actions.append(
            HiddenAction(
                id=entry.get("id", f"a{i}"),
                prob=number(entry, "prob", f"actions[{i}].prob"),
                outcomes=tuple(outcomes),
            )
        )
    return RemedialRecord(  # last, so its p_delta check follows every parse fault
        remedy=remedy,
        delta=delta,
        indicators=indicators,
        actions=tuple(actions),
        p_delta=p_delta,
    )
