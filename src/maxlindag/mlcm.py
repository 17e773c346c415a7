"""Max-linear coefficient matrices.

A recursive max-linear model on a DAG assigns every node the maximum of its
weighted parents and an own noise term,

    X_i = max(max_{k in pa(i)} c_ki * X_k, c_ii * Z_i),

which unrolls to ``X_i = max_{j in An(i)} b_ji * Z_j``.  The coefficient
``b_ji`` is the maximum weight over all j-to-i paths, where a path weight is
``c_jj`` times the product of its edge weights.  This module computes the
coefficient matrix B from edge weights (max-times dynamic programming over a
topological order), standardizes it to unit column sums, and decides the
structural questions that drive identifiability: which paths are
max-weighted, whether a matrix is a valid (max-weighted) coefficient matrix,
and what the minimum representing DAG is.

Those structural questions all compare ``b_ki`` with the max-times
"through" values ``b_kl * b_li / b_ll`` over intermediate nodes ``l``.  One
private kernel, :func:`_through`, computes their largest and smallest value
for every pair at once; :func:`minimum_ml_dag`, :func:`is_rmwm_mlcm` and,
through the former, :func:`is_mlcm` read their answers from it.  The kernel
works in blocks whose temporaries hold at most ``_THROUGH_BLOCK`` elements
(512 KB of float64), beside its two d x d outputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .graph import Dag, is_reachability_matrix
from .tolerance import DEFAULT_TOL, Verdict, max_rel_residual, rel_residual, rel_residuals

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


def _validate_mlcm_shape(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValidationError(f"coefficient matrix must be square, got shape {b.shape}")
    return b


def sign_pattern(b: np.ndarray) -> np.ndarray:
    """0/1 support pattern of a nonnegative matrix."""
    b = _validate_mlcm_shape(b)
    if (b < 0).any():
        raise ValidationError("coefficient matrix has negative entries")
    return (b > 0).astype(np.int64)


def standardize(b: np.ndarray, alpha: float) -> np.ndarray:
    """Rescale so every column of ``b**alpha`` sums to one.

    The result is itself a valid coefficient matrix on the same DAG and is
    the scale-free representative shared by all models with the same tail
    dependence matrix.
    """
    b = _validate_mlcm_shape(b)
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValidationError(f"tail index must be finite and positive, got {alpha}")
    if (b < 0).any() or (np.diag(b) <= 0).any():
        raise ValidationError("matrix must be nonnegative with positive diagonal")
    powered = b**alpha
    return powered / powered.sum(axis=0)


def destandardize(bbar: np.ndarray, betas: float | Sequence[float], alpha: float) -> np.ndarray:
    """Inverse of :func:`standardize` up to column scaling.

    Maps ``b_ij -> beta_j * b_ij**(1/alpha)``; running :func:`standardize`
    on the result with the same ``alpha`` recovers ``bbar``.
    """
    bbar = _validate_mlcm_shape(bbar)
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValidationError(f"tail index must be finite and positive, got {alpha}")
    beta = np.broadcast_to(np.asarray(betas, dtype=float), (bbar.shape[0],))
    if (beta <= 0).any() or not np.isfinite(beta).all():
        raise ValidationError("column scalings must be finite and strictly positive")
    return bbar ** (1.0 / alpha) * beta[None, :]


def _through(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest ``(b_kl * b_li) / b_ll`` over chains k -> l -> i.

    Only intermediate nodes ``l`` other than ``k`` and ``i`` with
    ``b_kl > 0`` and ``b_li > 0`` count.  Returns ``(hi, lo)``; pairs without
    such an ``l`` get ``-inf`` and ``inf``.  The product is formed first and
    then divided, as in the scalar formula, so every value is bit-identical
    to it.  Rows of ``k``, and columns of ``i`` when one row is too big, are
    taken in blocks whose temporaries hold at most ``_THROUGH_BLOCK``
    elements.
    """
    d = b.shape[0]
    off = b <= 0
    np.fill_diagonal(off, True)
    diag = np.diag(b)[:, None]
    hi = np.full((d, d), -np.inf)
    lo = np.full((d, d), np.inf)
    cols = max(1, min(d, _THROUGH_BLOCK // max(d, 1)))
    rows = max(1, _THROUGH_BLOCK // (d * cols))
    for k0 in range(0, d, rows):
        ks = slice(k0, k0 + rows)
        for i0 in range(0, d, cols):
            cs = slice(i0, i0 + cols)
            values = b[ks, :, None] * b[None, :, cs]
            values /= diag
            off_chain = off[ks, :, None] | off[None, :, cs]
            np.copyto(values, -np.inf, where=off_chain)
            hi[ks, cs] = values.max(axis=1)
            np.copyto(values, np.inf, where=off_chain)
            lo[ks, cs] = values.min(axis=1)
    return hi, lo


def max_weighted_triple(
    bbar: np.ndarray, j: int, k: int, i: int, tol: float = DEFAULT_TOL
) -> Verdict:
    """Is the maximum j-to-i path weight realized through ``k``?

    Requires ``j`` strictly above ``k`` and ``k`` strictly above ``i`` in
    the support pattern.  True iff ``b_ji == b_jk * b_ki / b_kk`` within
    ``tol``; the left side always dominates the right for valid matrices.
    """
    bbar = _validate_mlcm_shape(bbar)
    d = bbar.shape[0]
    for node in (j, k, i):
        if not (1 <= node <= d):
            raise ValidationError(f"node {node} outside range 1..{d}")
    if j == k or bbar[j - 1, k - 1] <= 0:
        raise ValidationError(f"node {j} is not a strict ancestor of {k}")
    if k == i or bbar[k - 1, i - 1] <= 0:
        raise ValidationError(f"node {k} is not a strict ancestor of {i}")
    through = bbar[j - 1, k - 1] * bbar[k - 1, i - 1] / bbar[k - 1, k - 1]
    residual = rel_residual(bbar[j - 1, i - 1], through)
    return Verdict(residual <= tol, residual)


def is_rmwm_mlcm(bbar: np.ndarray, tol: float = DEFAULT_TOL) -> Verdict:
    """Does ``bbar`` belong to a model in which every path is max-weighted?

    Checks ``b_ji == b_jk * b_ki / b_kk`` for every chained triple of the
    support pattern.  The pattern itself must be a reachability matrix;
    anything else is a precondition violation, not a negative verdict.

    The worst residual is read from the through kernel (temporaries capped
    at ``_THROUGH_BLOCK`` elements): a relative residual against ``b_ji``
    peaks at the largest or the smallest through value, so only those two
    are compared.
    """
    bbar = _validate_mlcm_shape(bbar)
    pattern = sign_pattern(bbar)
    if not is_reachability_matrix(pattern):
        raise ValidationError("support pattern is not a reachability matrix of a DAG")
    hi, lo = _through(bbar)
    chained = hi != -np.inf
    if not chained.any():
        return Verdict(True, 0.0)
    # Exact to the bit while a through value stays below 2 * b_ji, the only
    # range where a residual can pass any tolerance below one half.
    direct = bbar[chained]
    worst = max(
        float(rel_residuals(direct, hi[chained]).max()),
        float(rel_residuals(direct, lo[chained]).max()),
    )
    return Verdict(worst <= tol, worst)


def minimum_ml_dag(b: np.ndarray, tol: float = DEFAULT_TOL) -> Dag:
    """Smallest DAG representing the structural equations of ``b``.

    Keeps edge ``k -> i`` exactly when the direct edge is the unique
    max-weighted k-to-i path, i.e. ``b_ki`` strictly exceeds every
    ``b_kl * b_li / b_ll`` over intermediate nodes ``l``.  Works for
    standardized and unstandardized matrices alike since the criterion is
    scale-free.

    Only the largest through value from the kernel (temporaries capped at
    ``_THROUGH_BLOCK`` elements) is compared: the relative gap below
    ``b_ki`` shrinks as the through value grows.
    """
    b = _validate_mlcm_shape(b)
    pattern = sign_pattern(b)
    if not is_reachability_matrix(pattern):
        raise ValidationError("support pattern is not a reachability matrix of a DAG")
    hi, _ = _through(b)
    strict = pattern.astype(bool)
    np.fill_diagonal(strict, False)
    redundant = (b <= hi) | (rel_residuals(b, hi) <= tol)
    ks, is_ = np.nonzero(strict & ~redundant)
    return Dag(b.shape[0], zip((ks + 1).tolist(), (is_ + 1).tolist()))


def is_mlcm(bbar: np.ndarray, tol: float = DEFAULT_TOL) -> Verdict:
    """Is ``bbar`` the coefficient matrix of some recursive max-linear model?

    Decision by reconstruction: the support pattern must be a reachability
    matrix; then the minimum representing DAG is extracted, its uniquely
    determined edge weights ``c_ki = b_ki / b_kk`` and ``c_ii = b_ii`` are
    read off, and the coefficient matrix is recomputed from them.  ``bbar``
    is valid iff the recomputation reproduces it entrywise.  Negative
    verdicts carry ``reason`` "sign_pattern" or "recomposition".
    """
    bbar = _validate_mlcm_shape(bbar)
    if (bbar < 0).any() or (np.diag(bbar) <= 0).any():
        return Verdict(False, float("inf"), "sign_pattern")
    if not is_reachability_matrix((bbar > 0).astype(np.int64)):
        return Verdict(False, float("inf"), "sign_pattern")
    dag = minimum_ml_dag(bbar, tol)
    weights = {(k, i): bbar[k - 1, i - 1] / bbar[k - 1, k - 1] for k, i in dag.edges}
    model = WeightedModel(dag, weights, tuple(np.diag(bbar)), 1.0)
    residual = max_rel_residual(mlcm_from_weights(model), bbar)
    if residual <= tol:
        return Verdict(True, residual)
    return Verdict(False, residual, "recomposition")


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
