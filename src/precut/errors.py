"""Exception hierarchy shared by all precut modules."""


class PrecutError(Exception):
    """Base class for all errors raised by this package."""


class InvalidStructure(PrecutError, ValueError):
    """A preorder, finite set, multimap, species or JSON payload that breaks its invariants."""


class DimensionMismatch(PrecutError):
    pass


class NotPromap(PrecutError):
    pass


class NotPartialMap(PrecutError):
    pass


class UnknownLabel(PrecutError):
    pass


class GroundMismatch(PrecutError):
    pass


class CapExceeded(PrecutError):
    pass


class BadDecomposition(PrecutError):
    pass


class UnknownInstance(PrecutError):
    pass


class NotExhaustive(PrecutError):
    pass


class NotNested(PrecutError):
    pass


class NotTotalPreorder(PrecutError):
    pass


class FrameViolation(PrecutError):
    pass


class NotARefinement(PrecutError):
    pass


class NotIntertwined(PrecutError):
    pass
