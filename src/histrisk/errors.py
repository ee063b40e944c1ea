"""Exception types shared across the package, and the checks whose failures they report."""

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
