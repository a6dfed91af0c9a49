"""Exception taxonomy.

Two branches matter to callers: :class:`DataFormatError` covers anything
wrong with bytes, files or schemas (CLI exit code 2), while
:class:`NumericalError` covers violations of numerical preconditions
(CLI exit code 3).  :func:`naming` is the one place where an error raised
on a tensor gets the tensor's name, and where a MemoryError becomes
:class:`OutOfMemory`.
"""

import contextlib
from collections.abc import Iterator


class GhnpostError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(GhnpostError):
    """A file, byte sequence or schema did not match its contract."""


class NumericalError(GhnpostError):
    """A numerical precondition was violated."""


# --- container / schema errors -------------------------------------------

class BadMagic(DataFormatError):
    pass


class UnsupportedVersion(DataFormatError):
    pass


class CorruptHeader(DataFormatError):
    pass


class TruncatedData(DataFormatError):
    pass


class SchemaError(DataFormatError):
    """JSON input failed validation; the message carries the JSON path."""


class ShapeMismatch(DataFormatError):
    pass


class StructureMismatch(DataFormatError):
    """Two checkpoints disagree on tensor names or shapes."""


# --- numerical errors ------------------------------------------------------

class UnsupportedRank(NumericalError):
    pass


class ChannelTooShort(NumericalError):
    pass


class TooFewChannels(NumericalError):
    pass


class ShapeError(NumericalError):
    pass


class DegenerateInput(NumericalError):
    pass


class NonFiniteTensor(NumericalError):
    """A tensor, or the output computed from it, holds NaN or Inf."""


class OutOfMemory(NumericalError):
    """The working memory of one tensor could not be allocated."""


@contextlib.contextmanager
def naming(name: str, note: str = "") -> Iterator[None]:
    """Prefix the message of a package error raised in the block with
    ``tensor 'name'`` and ``note``; a MemoryError becomes OutOfMemory
    with the same prefix."""
    try:
        yield
    except GhnpostError as exc:
        raise type(exc)(f"tensor {name!r}{note}: {exc}") from exc
    except MemoryError as exc:
        raise OutOfMemory(f"tensor {name!r}{note}: {exc}") from exc
