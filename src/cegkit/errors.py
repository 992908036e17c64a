"""Exception types raised by the engine.

Every failure mode a caller can provoke has its own class so the CLI can map
them onto exit codes without string matching.
"""


class CegError(Exception):
    """Base class for all engine errors."""


class ParseError(CegError):
    """A document could not be parsed or is missing required keys."""


# -- event tree construction ------------------------------------------------

class DanglingEdge(CegError):
    """An edge references a vertex that does not exist or is unreachable,
    or closes a cycle."""


class MultipleParents(CegError):
    """A vertex has more than one incoming edge."""


class MissingLeafStatus(CegError):
    """A leaf carries no Failed/Operational status."""


class NotNormalized(CegError):
    """A transition, replacement or mixture vector does not sum to one
    within tolerance."""


class OutOfOpenInterval(CegError):
    """A probability lies outside its interval, or Dirichlet parameters are
    not strictly positive or sum past the float range."""


# -- ceg queries ------------------------------------------------------------

class UnknownSelector(CegError):
    """A path-set selector names nothing in the graph."""


class UnknownEdge(CegError):
    """An edge reference does not match any edge."""


class PositionNotInCeg(CegError):
    """A position id does not name a position of the graph."""


# -- interventions ----------------------------------------------------------

class IdenticalTheta(CegError):
    """A replacement vector equals the idle vector it is meant to replace."""


class EmptyInterventionSet(CegError):
    """No position is intervened."""


class OverlappingIntervention(CegError):
    """Some root-to-sink path passes through two intervened positions."""


class LengthMismatch(CegError):
    """A vector's length does not match the floret it applies to."""


class MissingConditional(CegError):
    """A required conditional table entry is absent from a record."""


# -- causal queries ---------------------------------------------------------

class ControlledEventLeaksOutsideIntervention(CegError):
    """A controlled d-event also labels edges outside the intervened florets."""


class NotAPartition(CegError):
    """Blocks fail to partition the intervened path set exactly."""


class PartitionNotValid(CegError):
    """A supplied block structure failed the back-door criteria."""


class UndefinedConditional(CegError):
    """A required conditional probability has a zero denominator."""


class UnknownTarget(CegError):
    """A query names a target d-event the model does not contain."""
