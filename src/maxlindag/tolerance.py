"""Shared numerical tolerances, comparison helpers and the tolerance rule.

Max-times path products compound rounding, so every equality-based
classification works at a relative tolerance and reports its worst-case
residual next to the boolean verdict.  ``_check_tol`` is the one rule for
``tol``: a real number, not a bool or a string, in the open interval (0, 1).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Relative tolerance for equality-based classification (max-weighted paths,
# coefficient-matrix validity, recursion feasibility).
DEFAULT_TOL = 1e-9

# Absolute tolerance separating "exactly zero" from "positive" tail
# dependence entries.  Its only reader is taildep._positive_mask, the zero
# rule of every clique, pattern and initial-set computation.  Condition (a)
# of check_rmwm_tdm still calls an entry zero when it is at most ``tol``:
# acceptance criterion 3 adds 1e-10 to chi(1, 2), which is zero in some of
# its models, and requires the verdict to stand.  One rule for both needs
# forward-error bounds on chi.
ZERO_TOL = 1e-12


def _is_real(x) -> bool:
    # A real number, numpy scalars included; a bool or a string is not one.
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _shown(x):
    # A rejected value as its message shows it: numpy scalars as Python ones,
    # also inside a tuple or a list.
    if isinstance(x, (tuple, list)):
        shown = [_shown(v) for v in x]
        return shown if isinstance(x, list) else tuple(shown)
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

