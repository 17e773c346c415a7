"""Shared numerical tolerances, every input rule and every comparison rule.

Max-times path products compound rounding, so every equality-based
classification works at a tolerance and reports its worst-case residual next
to the boolean verdict.

Every rule that judges a plain value passed in is here too, and raises
``ValidationError``: ``_check_tol`` (every ``tol``), ``_instance`` (a library
object, or a text, of the expected type), ``_items`` (a collection),
``_flag`` (a bool switch), ``_path`` (a file path), ``_is_integer``
under ``_node``, ``_edge``, ``_count``, ``_node_count``, ``_rows`` and
``_seed``, ``_tail_index`` and ``_positive`` (finite reals above zero), and
``_real_array``, the one conversion of a caller's array, under
``_finite_square`` and ``_positive_diagonal``.  ``_value`` reads a numpy
scalar as its Python value, for ``_tail_index``, ``_positive`` and the
messages of ``_shown``, so that no rule compares a float16 or float32 with
a Python float that it cannot hold.

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
- ``_positive_mask(chi)``, the zero rule of chi at ``ZERO_TOL``, called by
  ``taildep._tdm`` alone: every clique, pattern, ordering and bijection.
  ``_chi_positive(chi, tol)``, condition (a)'s zero rule at ``tol``.
"""
from __future__ import annotations

import math
import numbers
import os
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


def _value(x):
    # A numpy scalar as its Python value (a long double stays one).
    return x.item() if isinstance(x, np.generic) else x


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
    return _value(x)


def _check_tol(tol: float, what: str = "tol") -> float:
    # The one rule for a real number in (0, 1).  For a tol: zero against a
    # positive entry is a relative residual of 1, so tol must be below 1.
    if not (_is_real(tol) and 0.0 < tol < 1.0):
        raise ValidationError(f"{what} must lie in (0, 1), got {_shown(tol)!r}")
    return float(tol)


def _items(values, what: str, kind: str = "nodes") -> list:
    # The items of a collection passed in, as a list.
    try:
        return list(values)
    except TypeError:
        message = f"{what} must be a collection of {kind}, got {_shown(values)!r}"
        raise ValidationError(message) from None


def _is_integer(v) -> bool:
    # An integer, numpy integers included; a bool is not one.
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _node(v: int, d: int) -> int:
    # The node v as a Python int; anything but an integer in 1..d raises.
    if not (_is_integer(v) and 1 <= v <= d):
        raise ValidationError(f"node {_shown(v)!r} is not an integer in 1..{d}")
    return int(v)


def _edge(pair, d: int) -> tuple[int, int]:
    # The edge k -> i as a pair of distinct nodes; anything else raises.
    try:
        k, i = pair
    except (TypeError, ValueError):
        raise ValidationError(f"edge {_shown(pair)!r} is not a pair of nodes") from None
    k, i = _node(k, d), _node(i, d)
    if k == i:
        raise ValidationError(f"self loop at node {k}")
    return k, i


def _flag(value, what: str) -> bool:
    # A switch: a bool or a numpy bool, not a value read by its truth.
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{what} must be a bool, got {_shown(value)!r}")
    return bool(value)


def _path(path) -> str:
    # A file path: a str, or an os.PathLike that gives one.
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    if not isinstance(name, str):
        raise ValidationError(f"path must be a str or a path, got {type(path).__name__}")
    return name


def _count(n: int, what: str) -> int:
    # The count n as a Python int; anything but an integer of at least 1 raises.
    if not (_is_integer(n) and n >= 1):
        raise ValidationError(f"{what} must be an integer of at least 1, got {_shown(n)!r}")
    return int(n)


def _node_count(d: int) -> int:
    # A count whose d x d reachability matrix numpy can shape (sys.maxsize is
    # the largest np.intp), checked before anything is built.
    d = _count(d, "node count")
    if d * d > sys.maxsize:
        raise ValidationError(f"node count {_shown(d)!r} is too large for a d x d numpy array")
    return d


def _rows(n: int, what: str, d: int) -> int:
    # A count of rows of d float64 values that numpy can shape into an
    # (n, d) array; checked before any draw.
    n = _count(n, what)
    if n * d * 8 > np.iinfo(np.intp).max:
        raise ValidationError(f"{what} is too large for a numpy array of {d} columns")
    return n


def _seed(seed: int) -> int:
    # numpy's generators take an integer >= 0.
    if not (_is_integer(seed) and seed >= 0):
        raise ValidationError(f"seed must be a non-negative integer, got {_shown(seed)!r}")
    return int(seed)


def _tail_index(alpha: float) -> float:
    # A real number, finite and positive.
    alpha = _value(alpha)
    if not (_is_real(alpha) and 0.0 < alpha <= sys.float_info.max):
        raise ValidationError(f"tail index must be finite and positive, got {_shown(alpha)!r}")
    return float(alpha)


def _positive(values, what: str) -> tuple[float, ...]:
    # Weights and scalings: finite real numbers above zero.  An integer
    # beyond float64 is not finite here: float() would overflow.
    values = [_value(c) for c in _items(values, what, "numbers")]
    if not all(_is_real(c) and 0.0 < c <= sys.float_info.max for c in values):
        raise ValidationError(f"{what} must be finite and strictly positive")
    return tuple(float(c) for c in values)


def _real_array(m, noun: str) -> np.ndarray:
    # Bools, integers and reals as numpy holds them, an object array of reals
    # as float64; anything else raises, with no warning.
    try:
        a = np.asarray(m)
        if a.dtype.kind == "O" and all(map(_is_real, a.flat)):
            with np.errstate(over="raise"):  # a long double beyond float64
                a = a.astype(float)
    except ValueError:
        raise ValidationError(f"{noun} is ragged: its rows differ in length") from None
    except (OverflowError, FloatingPointError):
        raise ValidationError(f"{noun} has a value beyond float64") from None
    if a.dtype.kind not in "biuf":
        raise ValidationError(f"{noun} must hold real numbers, got dtype {a.dtype}")
    return a


def _finite_square(m, noun: str = "coefficient matrix") -> np.ndarray:
    # A matrix as float64: square, nonempty and finite.
    m = _real_array(m, noun).astype(float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError(f"{noun} must be square and nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{noun} has non-finite entries")
    return m


def _positive_diagonal(b) -> np.ndarray:
    # A square finite matrix, nonnegative with positive diagonal.
    b = _finite_square(b)
    if (b < 0).any() or (np.diag(b) <= 0).any():
        raise ValidationError("matrix must be nonnegative with positive diagonal")
    return b


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
    with np.errstate(over="ignore"):  # a difference beyond float64 is inf
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
