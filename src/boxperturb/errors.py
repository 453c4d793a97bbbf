"""Exception types shared across the package."""


class BoxPerturbError(ValueError):
    """Base class for all package errors."""


class EmptyMask(BoxPerturbError):
    pass


class BoxOutOfBounds(BoxPerturbError):
    pass


class DimensionMismatch(BoxPerturbError):
    pass


class EmptySource(BoxPerturbError):
    pass


class DomainError(BoxPerturbError):
    pass


class NonFiniteGradient(BoxPerturbError):
    pass


class EmptyDataset(BoxPerturbError):
    pass


class InvalidWindow(BoxPerturbError):
    pass


class MalformedManifest(BoxPerturbError):
    pass


class MalformedHeader(BoxPerturbError):
    pass


class TruncatedPayload(BoxPerturbError):
    pass


class UnsupportedMaxval(BoxPerturbError):
    pass


class BadMagic(BoxPerturbError):
    pass


class SizeMismatch(BoxPerturbError):
    pass
