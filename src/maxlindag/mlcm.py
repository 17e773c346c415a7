"""Max-linear coefficient matrices.

A recursive max-linear model on a DAG assigns every node the maximum of its
weighted parents and an own noise term,

    X_i = max(max_{k in pa(i)} c_ki * X_k, c_ii * Z_i),

which unrolls to ``X_i = max_{j in An(i)} b_ji * Z_j``.  The coefficient
``b_ji`` is the maximum weight over all j-to-i paths, where a path weight is
``c_jj`` times the product of its edge weights.  This module computes the
coefficient matrix B from edge weights (max-times dynamic programming over a
topological order), standardizes it to unit column sums, and decides the
structural questions that drive identifiability: whether a matrix is a
coefficient matrix at all, whether all its paths are max-weighted, and what
its minimum representing DAG is.

Each question compares ``b_ki`` with the max-times "through" values
``b_kl * b_li / b_ll`` over intermediate nodes ``l``: a matrix is valid iff
no through value exceeds its entry, max-weighted iff every through value
equals it, and ``k -> i`` is a minimum-DAG edge iff ``b_ki`` beats them all.
One private analysis, :func:`_analysis`, gates a matrix (square, finite,
nonnegative, a reachability matrix as support) and then runs one kernel,
:func:`_through`, for the largest and smallest through value of every pair;
:func:`is_mlcm`, :func:`is_rmwm_mlcm` and :func:`minimum_ml_dag` read their
answers off one analysis each, and callers that need several answers share
one.  The kernel works in row blocks whose temporaries hold at most
``_THROUGH_BLOCK`` elements (512 KB of float64), or one row's d x d slab
when that is larger, beside its d x d outputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import IllConditionedError, ValidationError
from .graph import Dag, _dag_on, is_reachability_matrix
from .tolerance import DEFAULT_TOL, Verdict, rel_residuals

# Element cap on each temporary of the through kernel.
_THROUGH_BLOCK = 1 << 16


@dataclass(frozen=True)
class WeightedModel:
    """Recursive max-linear model: DAG, positive weights, tail index.

    ``edge_weights[(k, i)]`` is the coefficient c_ki of parent ``k`` in the
    structural equation of ``i``; ``noise_scales[i-1]`` is c_ii.  All weights
    must be strictly positive and ``alpha`` finite positive.
    """

    dag: Dag
    edge_weights: Mapping[tuple[int, int], float]
    noise_scales: tuple[float, ...]
    alpha: float

    def __post_init__(self):
        weights = {(int(k), int(i)): float(c) for (k, i), c in self.edge_weights.items()}
        if set(weights) != set(self.dag.edges):
            raise ValidationError("edge_weights keys must match the DAG edge set")
        if any(not np.isfinite(c) or c <= 0.0 for c in weights.values()):
            raise ValidationError("edge weights must be finite and strictly positive")
        scales = tuple(float(c) for c in self.noise_scales)
        if len(scales) != self.dag.d:
            raise ValidationError(f"expected {self.dag.d} noise scales, got {len(scales)}")
        if any(not np.isfinite(c) or c <= 0.0 for c in scales):
            raise ValidationError("noise scales must be finite and strictly positive")
        alpha = float(self.alpha)
        if not np.isfinite(alpha) or alpha <= 0.0:
            raise ValidationError(f"tail index must be finite and positive, got {alpha}")
        object.__setattr__(self, "edge_weights", weights)
        object.__setattr__(self, "noise_scales", scales)
        object.__setattr__(self, "alpha", alpha)

    @property
    def d(self) -> int:
        return self.dag.d


def mlcm_from_weights(model: WeightedModel) -> np.ndarray:
    """Max-linear coefficient matrix B of a weighted model.

    Computed column by column in topological order through the max-times
    recurrence ``b_ji = max_{k in pa(i)} b_jk * c_ki`` with ``b_ii = c_ii``,
    so each entry equals the maximum path weight without enumerating paths.
    """
    d = model.d
    b = np.zeros((d, d))
    for i in model.dag.topological_order():
        col = np.zeros(d)
        for k in model.dag.parents(i):
            np.maximum(col, b[:, k - 1] * model.edge_weights[(k, i)], out=col)
        col[i - 1] = model.noise_scales[i - 1]
        b[:, i - 1] = col
    return b


def _validate_mlcm(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or b.size == 0:
        raise ValidationError(
            f"coefficient matrix must be square and nonempty, got shape {b.shape}"
        )
    if not np.isfinite(b).all():
        raise ValidationError("coefficient matrix has non-finite entries")
    return b


def sign_pattern(b: np.ndarray) -> np.ndarray:
    """0/1 support pattern of a nonnegative matrix."""
    b = _validate_mlcm(b)
    if (b < 0).any():
        raise ValidationError("coefficient matrix has negative entries")
    return (b > 0).astype(np.int64)


def standardize(b: np.ndarray, alpha: float) -> np.ndarray:
    """Rescale so every column of ``b**alpha`` sums to one.

    The result is itself a valid coefficient matrix on the same DAG and is
    the scale-free representative shared by all models with the same tail
    dependence matrix.  A column that overflows, or whose diagonal entry
    underflows to zero, in float64 raises :class:`IllConditionedError`.
    """
    b = _power_input(b, alpha)
    with np.errstate(all="ignore"):
        powered = b**alpha
        bbar = powered / powered.sum(axis=0)
    return _kept_columns(bbar, alpha)


def _power_input(b: np.ndarray, alpha: float) -> np.ndarray:
    b = _validate_mlcm(b)
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValidationError(f"tail index must be finite and positive, got {alpha}")
    if (b < 0).any() or (np.diag(b) <= 0).any():
        raise ValidationError("matrix must be nonnegative with positive diagonal")
    return b


def _kept_columns(b: np.ndarray, power: float) -> np.ndarray:
    # ``b`` after an entrywise power and a column scaling, once no column
    # has turned non-finite and no diagonal entry has underflowed to zero.
    lost = ~np.isfinite(b).all(axis=0) | (np.diag(b) == 0.0)
    if lost.any():
        col = int(np.argmax(lost)) + 1
        raise IllConditionedError(
            f"column {col} under- or overflows float64 when raised to the power {power}"
        )
    return b


def destandardize(bbar: np.ndarray, betas: float | Sequence[float], alpha: float) -> np.ndarray:
    """Inverse of :func:`standardize` up to column scaling.

    Maps ``b_ij -> beta_j * b_ij**(1/alpha)``; running :func:`standardize`
    on the result with the same ``alpha`` recovers ``bbar``.  A column that
    overflows, or whose diagonal entry underflows to zero, in float64
    raises :class:`IllConditionedError`.
    """
    bbar = _power_input(bbar, alpha)
    beta = np.broadcast_to(np.asarray(betas, dtype=float), (bbar.shape[0],))
    if (beta <= 0).any() or not np.isfinite(beta).all():
        raise ValidationError("column scalings must be finite and strictly positive")
    with np.errstate(all="ignore"):
        b = bbar ** (1.0 / alpha) * beta[None, :]
    return _kept_columns(b, 1.0 / alpha)


def _through(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest ``(b_kl * b_li) / b_ll`` over chains k -> l -> i.

    Only intermediate nodes ``l`` other than ``k`` and ``i`` with
    ``b_kl > 0`` and ``b_li > 0`` count.  Returns ``(hi, lo)``; pairs without
    such an ``l`` get ``-inf`` and ``inf``.  The product is formed first and
    then divided, as in the scalar formula, so every value is bit-identical
    to it.  Rows of ``k`` are taken in blocks whose temporaries hold at most
    ``_THROUGH_BLOCK`` elements, or the d x d of a single row.
    """
    d = b.shape[0]
    off = b <= 0
    np.fill_diagonal(off, True)
    diag = np.diag(b)[:, None]
    hi = np.full((d, d), -np.inf)
    lo = np.full((d, d), np.inf)
    rows = max(1, _THROUGH_BLOCK // (d * d))
    for k0 in range(0, d, rows):
        ks = slice(k0, k0 + rows)
        values = b[ks, :, None] * b
        values /= diag
        off_chain = off[ks, :, None] | off
        np.copyto(values, -np.inf, where=off_chain)
        hi[ks] = values.max(axis=1)
        np.copyto(values, np.inf, where=off_chain)
        lo[ks] = values.min(axis=1)
    return hi, lo


def max_weighted_triple(
    bbar: np.ndarray, j: int, k: int, i: int, tol: float = DEFAULT_TOL
) -> Verdict:
    """Is the maximum j-to-i path weight realized through ``k``?

    Requires ``j`` strictly above ``k`` and ``k`` strictly above ``i`` in
    the support pattern.  True iff ``b_ji == b_jk * b_ki / b_kk`` within
    ``tol``; the left side always dominates the right for valid matrices.
    """
    bbar = _validate_mlcm(bbar)
    d = bbar.shape[0]
    for node in (j, k, i):
        if not (1 <= node <= d):
            raise ValidationError(f"node {node} outside range 1..{d}")
    if j == k or bbar[j - 1, k - 1] <= 0:
        raise ValidationError(f"node {j} is not a strict ancestor of {k}")
    if k == i or bbar[k - 1, i - 1] <= 0:
        raise ValidationError(f"node {k} is not a strict ancestor of {i}")
    through = bbar[j - 1, k - 1] * bbar[k - 1, i - 1] / bbar[k - 1, k - 1]
    residual = float(rel_residuals(bbar[j - 1, i - 1], through))
    return Verdict(residual <= tol, residual)


class _Analysis(NamedTuple):
    # A square finite matrix after the support gate.  ``fault`` says why its
    # support is not that of a coefficient matrix; without one, ``hi`` and
    # ``lo`` are its through values, and answers can be read off.
    b: np.ndarray
    fault: str | None
    hi: np.ndarray | None = None
    lo: np.ndarray | None = None

    def is_mlcm(self, tol: float) -> Verdict:
        if self.fault:
            return Verdict(False, float("inf"), "sign_pattern")
        short = self.hi > self.b
        residual = float(rel_residuals(self.b[short], self.hi[short]).max(initial=0.0))
        if residual <= tol:
            return Verdict(True, residual)
        return Verdict(False, residual, "recomposition")

    def minimum_ml_dag(self, tol: float) -> Dag:
        if self.fault:
            raise ValidationError(self.fault)
        redundant = (self.b <= self.hi) | (rel_residuals(self.b, self.hi) <= tol)
        return _dag_on((self.b > 0) & ~redundant)

    def is_rmwm(self, tol: float) -> Verdict:
        if self.fault:
            raise ValidationError(self.fault)
        # Exact to the bit while a through value stays below 2 * b_ji, the
        # only range where a residual can pass any tolerance below one half.
        chained = self.hi != -np.inf
        direct = self.b[chained]
        worst = float(max(rel_residuals(direct, self.hi[chained]).max(initial=0.0),
                          rel_residuals(direct, self.lo[chained]).max(initial=0.0)))
        return Verdict(worst <= tol, worst)


def _analysis(b: np.ndarray) -> _Analysis:
    # The support gate, then one kernel pass if it holds; b must be square and finite.
    b = _validate_mlcm(b)
    if (b < 0).any():
        return _Analysis(b, "coefficient matrix has negative entries")
    if not is_reachability_matrix(b > 0):
        return _Analysis(b, "support pattern is not a reachability matrix of a DAG")
    return _Analysis(b, None, *_through(b))


def is_rmwm_mlcm(bbar: np.ndarray, tol: float = DEFAULT_TOL) -> Verdict:
    """Does ``bbar`` belong to a model in which every path is max-weighted?

    Checks ``b_ji == b_jk * b_ki / b_kk`` for every chained triple of the
    support pattern.  The pattern itself must be a reachability matrix;
    anything else is a precondition violation, not a negative verdict.  A
    relative residual against ``b_ji`` peaks at the largest or the smallest
    through value, so only those two are compared.
    """
    return _analysis(bbar).is_rmwm(tol)


def minimum_ml_dag(b: np.ndarray, tol: float = DEFAULT_TOL) -> Dag:
    """Smallest DAG representing the structural equations of ``b``.

    Keeps edge ``k -> i`` exactly when the direct edge is the unique
    max-weighted k-to-i path, i.e. ``b_ki`` strictly exceeds every
    ``b_kl * b_li / b_ll`` over intermediate nodes ``l``.  The criterion is
    invariant under column scaling, so a matrix and its standardization
    share their minimum DAG up to rounding.  It is not invariant under the
    entrywise power ``b**alpha`` of :func:`standardize`, which scales the
    relative gaps by about ``alpha``: an edge whose gap lies near ``tol`` can
    be kept for ``b`` and dropped for its standardization, or the reverse.
    Only the largest through value is compared: the relative gap below
    ``b_ki`` shrinks as the through value grows.
    """
    return _analysis(b).minimum_ml_dag(tol)


def is_mlcm(bbar: np.ndarray, tol: float = DEFAULT_TOL) -> Verdict:
    """Is ``bbar`` the coefficient matrix of some recursive max-linear model?

    B is the Kleene star of its edge weights, so a nonnegative matrix whose
    support is a reachability matrix is one iff ``b_ki >= b_kl * b_li / b_ll``
    over every chain k -> l -> i, i.e. iff ``b >= hi`` for the largest
    through value ``hi``.  Each through value is a k-to-i path weight, hence
    necessity.  Sufficiency goes by induction over the column recursion that
    recomposes B from the minimum DAG's read-off weights ``c_ki = b_ki / b_kk``,
    ``c_ii = b_ii``, columns in topological order and rows from ``i`` upwards:
    a minimum-DAG edge reproduces its own entry, and any other entry equals
    ``hi_ki = b_kl * b_li / b_ll`` for some ``l`` between k and i, which by
    the induction is a product along minimum-DAG edges.

    ``residual`` is the largest ``rel(b_ki, hi_ki)`` over the entries with
    ``hi > b``, or 0 when there is none; the verdict is positive iff it is
    at most ``tol``.  Negative verdicts carry ``reason`` "sign_pattern"
    (negative entries, or a support that is not a reachability matrix) or
    "recomposition".
    """
    return _analysis(bbar).is_mlcm(tol)


def homogeneous_model(dag: Dag, alpha: float) -> WeightedModel:
    """Max-weighted model whose coefficients depend only on ancestor counts.

    With ``c_ii = |An(i)|**(-1/alpha)`` and ``c_ki = (|An(k)|/|An(i)|)**(1/alpha)``
    every j-to-i path carries the same weight ``|An(i)|**(-1/alpha)``, so all
    paths are max-weighted on any DAG.
    """
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValidationError(f"tail index must be finite and positive, got {alpha}")
    n_an = {i: len(dag.ancestors_closed(i)) for i in range(1, dag.d + 1)}
    scales = tuple(n_an[i] ** (-1.0 / alpha) for i in range(1, dag.d + 1))
    weights = {(k, i): (n_an[k] / n_an[i]) ** (1.0 / alpha) for k, i in dag.edges}
    return WeightedModel(dag, weights, scales, float(alpha))


def model_from_std_mlcm(bbar: np.ndarray, alpha: float, tol: float = DEFAULT_TOL) -> WeightedModel:
    """Weighted model with tail index ``alpha`` whose standardization is ``bbar``.

    Uses unit column scalings; the model lives on the minimum representing
    DAG of ``bbar``.
    """
    verdict = is_mlcm(bbar, tol)
    if not verdict:
        raise ValidationError(f"matrix is not a valid coefficient matrix ({verdict.reason})")
    b = destandardize(bbar, 1.0, alpha)
    dag = minimum_ml_dag(b, tol)
    weights = {(k, i): b[k - 1, i - 1] / b[k - 1, k - 1] for k, i in dag.edges}
    return WeightedModel(dag, weights, tuple(np.diag(b)), float(alpha))
