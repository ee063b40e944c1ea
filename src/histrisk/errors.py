"""Exception types shared across the package, the checks whose failures they report, and the frozen record
base of the package's value types."""

import collections
import math
from typing import Iterable


class InputError(ValueError):
    """Invalid user-supplied data or configuration (bad file, bad flag, bad value)."""


class SingularDesignError(InputError):
    """Regression design matrix is rank deficient; the message names the dead column."""


def _integer(value: object) -> int | None:
    """``value`` as an int if it is a whole number (2, 2.0 and ``numpy.int64(2)`` are), else None."""
    try:
        whole = int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value else None


def _finite(value: object) -> float | None:
    """``value`` as a float if ``float`` reads it (``'0.9'`` too) as a finite number, else None."""
    try:
        real = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        return None
    return real if math.isfinite(real) else None


def _reject_repeats(names: Iterable[str], what: str) -> None:
    """Raise ``duplicate <what>: <name>, ...``, the repeated ``names`` sorted, if any name repeats."""
    repeated = sorted(name for name, count in collections.Counter(names).items() if count > 1)
    if repeated:
        raise InputError(f"duplicate {what}: {', '.join(repeated)}")


class _Record:
    """A frozen record of the fields its subclass names in ``__slots__``, in order.

    ``==``, ``hash``, ``repr`` and ``__match_args__`` go over the fields, as a frozen dataclass's do; assigning or
    deleting an attribute raises AttributeError; and a pickled or copied record is rebuilt through its class, so
    its arrays are checked and read-only again.  A subclass's ``__init__`` checks its arguments and stores the
    fields with ``_Record.__init__``.  The class is built as written, where a dataclass generates and compiles
    its methods at import.
    """

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        # ``-> None`` reads as the string 'None' under postponed annotations; a dataclass's ``__init__`` gave None
        cls.__init__.__annotations__["return"] = None

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple]:
        return self.__class__, self._astuple()
