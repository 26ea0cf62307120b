"""Exception types and the shared enumeration budget."""

# Carrier/up-set/interval enumerations abort above this many elements
# unless the caller overrides the budget (CLI: --budget / HSL_BUDGET).
DEFAULT_BUDGET = 200_000


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class NotComparable(EngineError):
    """The two elements are not related in the given order."""


class CarrierOverflow(EngineError):
    """An enumeration would exceed the configured element budget."""


class LabelMismatch(EngineError):
    """A structure's label set does not match the expected block."""


class LabelOverlap(EngineError):
    """Multiplication arguments live on non-disjoint label sets."""


class AmbientMismatch(EngineError):
    """Vector operands live in different ambient spaces."""


class NotAFlat(EngineError):
    """The given subgraph is not a flat of the ambient graph."""


class NotSelfAdjoint(EngineError):
    """Closed-form antipode requested for a family that fails the
    commutativity/cocommutativity criterion."""


class NonUniqueFactorization(EngineError):
    """Two splits of one structure gave different factors; the family does
    not have the unique factorization property."""


class ParseError(EngineError):
    """A structure encoding could not be parsed."""
