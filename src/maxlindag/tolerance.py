"""Shared numerical tolerances, the tolerance rule and every comparison rule.

Max-times path products compound rounding, so every equality-based
classification works at a tolerance and reports its worst-case residual next
to the boolean verdict.  ``_check_tol`` is the one rule for ``tol``: a real
number, not a bool or a string, in the open interval (0, 1).  ``_instance``
is the one type rule for a library object passed in (a ``Dag``, a model, a
noise spec or a sample block): anything else raises ``ValidationError``.

Every numeric verdict of the package -- is a value zero, negative, or close
to another -- is taken here, one private function per meaning:

- ``_outside(x, lo, tol, hi)``, absolute, ``x < lo - tol`` (or
  ``x > hi + tol``): the row recursion's negativity test
  (``identify._settled_row``), the initial-set filter
  (``taildep.clique_initial_filter``) and ``taildep.validate_tdm``'s range.
- ``_snap(row, tol)``, entries with ``|x| <= tol`` set to zero: the row
  recursion.
- ``_nonpositive(x)``, ``x <= 0.0`` for a value that must be positive: the
  row recursion's diagonal and condition (b) of ``taildep.check_rmwm_tdm``.
- ``_worst_off(a, b, bound)``, the index of the largest ``|a - b|`` beyond
  ``bound``: ``validate_tdm``'s asymmetry and diagonal at ``DEFAULT_TOL``,
  and ``taildep.tdm_from_std_mlcm``'s column sums at ``_COLSUM_TOL``.
- ``_within(residuals, tol)`` and ``_verdict(residual, tol)``, relative
  through :func:`rel_residuals`: elementwise for ``mlcm.minimum_ml_dag`` and
  the chi round trip of ``identify._identified``, and as a :class:`Verdict`
  on the worst residual for ``max_weighted_triple``, ``is_mlcm`` and
  ``is_rmwm_mlcm``.
- ``_chi_close(a, b, tol)``, absolute on the [0, 1] scale of chi:
  conditions (c) and (d) of ``check_rmwm_tdm``.
- ``_filter_cut(chi, tol)``, the initial-set filter's ``_outside`` moved by
  a slack delta: the cut of the clique search (``taildep._chi_cliques``).
- ``_positive_mask(chi)``, the zero rule of chi at ``ZERO_TOL``: every
  clique, pattern, ordering and bijection computation.
  ``_chi_positive(chi, tol)``, condition (a)'s zero rule at ``tol``.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, ValidationError

# Relative tolerance for equality-based classification (max-weighted paths,
# coefficient-matrix validity, recursion feasibility).
DEFAULT_TOL = 1e-9

# Absolute tolerance separating "exactly zero" from "positive" tail
# dependence entries, read by _positive_mask alone.
ZERO_TOL = 1e-12

# Absolute tolerance on the column sums of a standardized coefficient matrix.
_COLSUM_TOL = 1e-8


def _is_real(x) -> bool:
    # A real number, numpy scalars included; a bool or a string is not one.
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _instance(value, kind: type, what: str):
    # A value of the given type, checked before it is used.
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value


class _Text(str):
    __repr__ = str.__str__  # shown as it is inside a repr: no quotes


def _digits(n: int) -> int:
    # Decimal digits of an integer without str(), which refuses long ones:
    # those of the power of two at or below |n|, plus one if |n| reaches the
    # next power of ten (|n| is below twice that power of two).
    k = int((abs(n).bit_length() - 1) * math.log10(2)) + 1
    return k + (abs(n) >= 10**k)


def _shown(x):
    # A rejected value as its message shows it: numpy scalars as Python ones,
    # also inside a tuple, a list or an object array (shown as a list), and
    # an integer longer than repr allows (no limit without
    # sys.get_int_max_str_digits) by its digit count.
    if isinstance(x, np.ndarray) and x.dtype == object:
        return _shown(x.tolist())
    if isinstance(x, (tuple, list)):
        shown = [_shown(v) for v in x]
        return shown if isinstance(x, list) else tuple(shown)
    if isinstance(x, int) and 0 < getattr(sys, "get_int_max_str_digits", int)() < _digits(x):
        return _Text(f"<{'negative ' if x < 0 else ''}integer of {_digits(x)} digits>")
    return x.item() if isinstance(x, np.generic) else x


def _check_tol(tol: float, what: str = "tol") -> float:
    # The one rule for a real number in (0, 1).  For a tol: zero against a
    # positive entry is a relative residual of 1, so tol must be below 1.
    if not (_is_real(tol) and 0.0 < tol < 1.0):
        raise ValidationError(f"{what} must lie in (0, 1), got {_shown(tol)!r}")
    return float(tol)


@dataclass(frozen=True)
class Verdict:
    """Boolean classification plus the worst residual that produced it.

    ``residual`` is the largest relative deviation seen among the equality
    checks; ``float("inf")`` marks a structural failure where no residual is
    meaningful.  ``reason`` is a short machine-readable tag, ``None`` when
    the verdict is positive.
    """

    ok: bool
    residual: float
    reason: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "ok", bool(self.ok))
        object.__setattr__(self, "residual", float(self.residual))

    def __bool__(self) -> bool:
        return self.ok


def rel_residuals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise relative deviation |a-b| / max(|a|,|b|); zero where a == b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(diff == 0.0, 0.0, diff / np.where(scale == 0.0, 1.0, scale))


def _outside(x, lo, tol: float, hi=None):
    # x lies below lo, or above hi when given, by more than an absolute tol.
    # Elementwise; ``0.0 - tol`` is exactly ``-tol``.
    below = x < lo - tol
    return below if hi is None else below | (x > hi + tol)


def _snap(row: np.ndarray, tol: float) -> None:
    # Entries within an absolute tol of zero become exact zero, in place.
    row[np.abs(row) <= tol] = 0.0


def _nonpositive(x):
    # A value that must be positive is not: judged by sign alone.
    return x <= 0.0


def _worst_off(a, b, bound: float):
    # The index of the largest |a - b| when it exceeds bound, else None.
    off = np.abs(a - b)
    return np.unravel_index(np.argmax(off), off.shape) if off.max(initial=0.0) > bound else None


def _within(residuals, tol: float):
    # Elementwise: relative residuals that pass a tol.
    return residuals <= tol


def _verdict(residual: float, tol: float, reason: str | None = None) -> Verdict:
    # A worst relative residual passes iff it is at most tol; a failing
    # verdict carries ``reason``.
    return Verdict(True, residual) if residual <= tol else Verdict(False, residual, reason)


def _chi_close(a, b, tol: float):
    # chi entries live in [0, 1]: flooring the scale at one makes the
    # comparison absolute there, so sub-tolerance perturbations of any
    # entry, however small, never flip a verdict.  Works elementwise.
    return np.abs(a - b) <= tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def _filter_cut(chi: np.ndarray, tol: float) -> np.ndarray:
    # chi + tol + delta on the pairs i <= j, inf below, with delta as
    # argued in taildep._chi_cliques.
    d = chi.shape[0]
    delta = d * max(0.0, -float(chi.min())) + 8 * d * d * np.finfo(float).eps
    return np.where(np.tri(d, k=-1, dtype=bool), np.inf, chi + (tol + delta))


def _positive_mask(chi: np.ndarray) -> np.ndarray:
    """The zero rule for chi: positive (True) or zero (False).

    Entries strictly between zero and ``ZERO_TOL`` are neither: they raise
    :class:`IllConditionedError` instead of being classified silently.
    """
    chi = np.asarray(chi, dtype=float)
    band = (chi > 0.0) & (chi < ZERO_TOL)
    if band.any():
        i, j = map(int, np.argwhere(band)[0])
        raise IllConditionedError(
            f"entry ({i + 1},{j + 1}) = {float(chi[i, j])} lies in (0, {ZERO_TOL}); "
            "refusing to classify it as zero or positive"
        )
    return chi >= ZERO_TOL


def _chi_positive(chi: np.ndarray, tol: float) -> np.ndarray:
    # Condition (a)'s zero rule: chi is positive above tol.  It is not
    # _positive_mask: acceptance criterion 3 adds 1e-10 to a chi(1, 2) that
    # is zero in some of its models and requires the verdict to stand, which
    # the ZERO_TOL rule breaks.  One rule for both needs forward-error bounds
    # on chi.
    return chi > tol
