"""Exception types shared across the package: one class per failure condition.

The class says what went wrong, whatever the file format or module;
the message says where and by how much.  `naming(path)` is the one
place that puts a file's path in front of a message.
"""

from contextlib import contextmanager


class BoxPerturbError(ValueError):
    """Base class for all package errors."""


class MalformedFile(BoxPerturbError):
    """A file whose bytes do not follow its format: magic, header, size or values."""


class DimensionMismatch(BoxPerturbError):
    """Arrays that must share a shape do not."""


class EmptyMask(BoxPerturbError):
    """A mask with no foreground pixel where one is needed."""


class BoxOutOfBounds(BoxPerturbError):
    """A box that reaches outside its image."""


class DomainError(BoxPerturbError):
    """A value outside the domain where a function is defined."""


class NonFiniteGradient(BoxPerturbError):
    """A training step whose gradient is not finite."""


class EmptyDataset(BoxPerturbError):
    """No samples where some are needed: a missing manifest, an empty split."""


class InvalidWindow(BoxPerturbError):
    """An intensity window with a non-finite end, or a low end not below its high end."""


@contextmanager
def naming(path):
    """Re-raise a package error from the block with path in front of its message."""
    try:
        yield
    except BoxPerturbError as e:
        raise type(e)(f"{path}: {e}") from None
