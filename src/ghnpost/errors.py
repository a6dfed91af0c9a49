"""Exception taxonomy: one class for each way a caller handles an error.

- :class:`GhnpostError`, the base, is what :func:`naming` prefixes with
  a tensor's name.
- :class:`DataFormatError` covers anything wrong with bytes, files or
  schemas; ``cli.run`` exits 2 on it.
- :class:`NumericalError` covers violations of numerical preconditions;
  ``cli.run`` exits 3 on it.
- :class:`OutOfMemory`, a NumericalError, is a tensor's working memory
  that could not be allocated; ``postprocess._run_pool`` runs that
  layer once more, alone, before it fails the run.

Which rule failed is in the message: the field or tensor at fault and
what it broke.
"""

import contextlib
from collections.abc import Iterator


class GhnpostError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(GhnpostError):
    """A file, byte sequence or schema did not match its contract."""


class NumericalError(GhnpostError):
    """A numerical precondition was violated."""


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
