"""Forward simulation and limit distributions for max-linear models.

Sampling draws i.i.d. regularly varying noise (Pareto or Frechet, both by
inverse-CDF transform) and evaluates the noise representation
``X_i = max_j b_ji * Z_j`` one column at a time over the support of B: b_ji
is positive exactly when j is an ancestor of i, so column i folds in only
its ancestors' noise, one product and one running maximum per ancestor.
That costs O(n * nnz(B)) time and a cache-sized scratch block instead of
O(n * d**2) with (n, d) temporaries.  Each product is the same single
multiplication as in the dense evaluation and the maximum is exact, so the
samples equal the dense ones bit for bit.  A draw that overflows float64
raises :class:`ValidationError`.

Block maxima take each block's extreme uniform from its law instead of
drawing the block: the maximum of n independent uniforms has CDF u**n, the
law of V**(1/n) for one uniform V, and their minimum has the law of
1 - V**(1/n) (Devroye, *Non-Uniform Random Variate Generation*, 1986,
ch. V).  Clipping is monotone, the Frechet transform increases in u and the
Pareto transform decreases in it, and a product with a positive ``b_ji`` is
monotone, so maxima over draws and over parents commute: the componentwise
block maximum of X is the model evaluated at the block maximum of the noise,
which is the noise of the block maximum (Frechet) or minimum (Pareto) of u.
So one generator ``default_rng(seed)`` draws one uniform per block and node:
O(n_blocks * d) draws and memory and O(n_blocks * nnz(B)) evaluation,
whatever the block size.  An unscaled block maximum that overflows float64
raises, as a draw of :func:`sample` does.

The empirical tail dependence estimator is the standard exceedance ratio
above empirical marginal quantiles.  The limit distribution of scaled
componentwise maxima is available in closed form for Monte Carlo
validation: ``2 + log G_ij`` at the unit-Frechet scale points reproduces
the tail dependence coefficient exactly.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import TailSampleError, ValidationError
from .generate import _seed
from .graph import _count
from .mlcm import WeightedModel, _tail_index, mlcm_from_weights
from .tolerance import _check_tol, _is_real, _shown

_FAMILIES = ("pareto", "frechet")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise family and tail index.

    Pareto has survival ``x**-alpha`` on [1, inf); Frechet has CDF
    ``exp(-x**-alpha)`` on (0, inf).  Both are regularly varying with index
    ``alpha`` and lead to the same tail dependence matrix.
    """

    family: str
    alpha: float

    def __post_init__(self):
        family = str(self.family).strip().lower().replace("é", "e")
        if family not in _FAMILIES:
            raise ValidationError(f"unsupported noise family {self.family!r}; use {_FAMILIES}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "alpha", _tail_index(self.alpha))


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """Independent draws of a model, one per row, with their provenance."""

    values: np.ndarray
    seed: int
    model: WeightedModel
    noise: NoiseSpec

    @property
    def n(self) -> int:
        return self.values.shape[0]


_ROWS = 16384  # rows per block in _evaluate: the block's noise stays in cache


def _transform(u: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    # Inverse-CDF transform of uniforms into noise, in place; u clamped into
    # the open interval.  Overflow is left to _noise_max_linear.
    np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
    if noise.family == "frechet":
        np.log(u, out=u)
        np.negative(u, out=u)
    u **= -1.0 / noise.alpha
    return u


def _evaluate(mlcm: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``X_i = max_j b_ji * Z_j`` for each row of ``z``, as a column-major (n, d) array.

    Column i folds in only the j with ``b_ji > 0``.  Rows go in blocks whose
    transposed noise fits in cache, so every product reads a contiguous row.
    """
    n, d = z.shape
    support = [np.flatnonzero(mlcm[:, i] > 0) for i in range(d)]
    xt = np.empty((d, n))
    zt = np.empty((d, min(n, _ROWS)))
    tmp = np.empty(min(n, _ROWS))
    for start in range(0, n, _ROWS):
        stop = min(start + _ROWS, n)
        zb, t = zt[:, : stop - start], tmp[: stop - start]
        np.copyto(zb, z[start:stop].T)
        for i, (first, *rest) in enumerate(support):
            x = xt[i, start:stop]
            np.multiply(zb[first], mlcm[first, i], out=x)
            for j in rest:
                np.multiply(zb[j], mlcm[j, i], out=t)
                np.maximum(x, t, out=x)
    return xt.T


def _same_tail_index(model: WeightedModel, noise: NoiseSpec) -> None:
    # The noise must have the model's tail index; checked before any draw.
    if noise.alpha != model.alpha:
        raise ValidationError(
            f"noise tail index {noise.alpha} differs from model tail index {model.alpha}"
        )


def _noise_max_linear(mlcm: np.ndarray, noise: NoiseSpec, u: np.ndarray) -> np.ndarray:
    # The model's values at the noise of the uniforms u, which it overwrites.
    # x_j >= b_jj * z_j with b_jj > 0, so an infinite noise value shows in x too.
    with np.errstate(over="ignore"):
        x = _evaluate(mlcm, _transform(u, noise))
    if not np.isfinite(x.max()):
        raise ValidationError(
            f"{noise.family} noise with tail index {noise.alpha} overflowed float64; "
            "a larger tail index keeps the draws finite"
        )
    return x


def _rows(n: int, what: str, d: int) -> int:
    # A count of rows of d float64 values that numpy can shape into an
    # (n, d) array; checked before any draw.
    n = _count(n, what)
    if n * d * 8 > np.iinfo(np.intp).max:
        raise ValidationError(f"{what} is too large for a numpy array of {d} columns")
    return n


def sample(model: WeightedModel, noise: NoiseSpec, n: int, seed: int) -> SampleBlock:
    """Draw ``n`` independent copies of the model, reproducibly per seed.

    The noise tail index must match the model's; mixing indices would
    silently change the standardized coefficient matrix the sample reflects.
    An ``n`` too large for an (n, d) float64 array raises before any draw.
    """
    n = _rows(n, "sample size", model.d)
    _same_tail_index(model, noise)
    seed = _seed(seed)
    u = np.random.default_rng(seed).random((n, model.d))
    x = _noise_max_linear(mlcm_from_weights(model), noise, u)
    return SampleBlock(x, seed, model, noise)


def empirical_tdm(block: SampleBlock, u: float) -> np.ndarray:
    """Empirical tail dependence matrix at quantile level ``u``.

    chi_hat(i, j) pools the two conditional exceedance ratios:
    ``2 * #{both exceed} / (#{i exceeds} + #{j exceeds})`` with empirical
    marginal quantiles.  Requires at least 50 expected tail exceedances.
    """
    _check_tol(u, "quantile level")
    n = block.n
    if n * (1.0 - u) < 50.0:
        raise TailSampleError(
            f"only {n * (1.0 - u):.1f} expected exceedances at u={u} with n={n}; "
            "need at least 50"
        )
    values = block.values
    # Quantiles per column copy one column at a time; the float 0/1 hits, whose
    # sums and products count exactly, are the only (n, d) temporary.
    quantiles = np.array([np.quantile(column, u) for column in values.T])
    hits = np.greater(values, quantiles[None, :], out=np.empty_like(values, dtype=np.float64))
    counts = hits.sum(axis=0)
    if (counts == 0).any():
        raise TailSampleError("a margin has no exceedances above its empirical quantile")
    joint = hits.T @ hits
    chi = 2.0 * joint / (counts[:, None] + counts[None, :])
    np.fill_diagonal(chi, 1.0)
    return chi


def limit_cdf(
    model: WeightedModel,
    x: float | tuple[float, float] | np.ndarray,
    i: int | None = None,
    j: int | None = None,
) -> float:
    """Limit distribution G of scaled componentwise maxima, evaluated at ``x``.

    Over the evaluated nodes S, at a positive point ``x`` indexed by S,

        G_S(x) = exp(-sum_j max_{i in S} (b_ji / x_i)**alpha),

    where S holds every node without node arguments, {i} with ``i`` alone
    (the Frechet marginal) and {i, j} with both, ``x = (x_i, x_j)``.  The
    point holds one real, positive value per node of S (+inf allowed), not
    a bool or a string.  The normalizing sequence is ``n**(1/alpha)``.
    """
    if i is None and j is not None:
        raise ValidationError("a bivariate evaluation needs both node arguments")
    nodes = [v for v in (i, j) if v is not None] or range(1, model.d + 1)
    for v in nodes:
        model.dag._check_node(v)
    values = np.asarray(x, dtype=object).ravel()
    if not all(_is_real(v) for v in values):
        raise ValidationError(f"evaluation point must be real numbers, got {_shown(x)!r}")
    if values.size != len(nodes):
        raise ValidationError(
            f"evaluation point {_shown(x)!r} needs one value per evaluated node, "
            f"{len(nodes)}, got {values.size}"
        )
    try:
        point = values.astype(float)
    except OverflowError:  # an integer or a fraction beyond float64
        raise ValidationError("evaluation point has a value beyond float64") from None
    if not (point > 0).all():
        raise ValidationError("evaluation point must be strictly positive")
    b = mlcm_from_weights(model)[:, [v - 1 for v in nodes]]
    return float(np.exp(-((b / point) ** model.alpha).max(axis=1).sum()))


def unit_frechet_points(model: WeightedModel) -> np.ndarray:
    """Per-margin scale points where ``-1/log G_i`` equals one.

    At these points ``2 + log G_ij`` equals the tail dependence coefficient
    of the pair.
    """
    b = mlcm_from_weights(model)
    return (b**model.alpha).sum(axis=0) ** (1.0 / model.alpha)


def scaled_block_maxima(
    model: WeightedModel,
    noise: NoiseSpec,
    block_size: int,
    n_blocks: int,
    seed: int,
) -> np.ndarray:
    """Componentwise block maxima scaled by ``block_size**(-1/alpha)``.

    Returns an ``(n_blocks, d)`` array whose rows converge in distribution
    to the limit law of :func:`limit_cdf`, reproducible per seed.  One
    generator ``default_rng(seed)`` draws one uniform per block and node,
    and each becomes the block's extreme uniform through its law (see the
    module docstring): O(n_blocks * d) draws and memory and
    O(n_blocks * nnz(B)) evaluation.  An unscaled block maximum that
    overflows float64 raises :class:`ValidationError`, and so, before any
    draw, do a block size beyond float64 and a block count too large for an
    (n_blocks, d) float64 array.
    """
    block_size = _count(block_size, "block size")
    if block_size > sys.float_info.max:
        raise ValidationError("block size is too large for float64")
    n_blocks = _rows(n_blocks, "block count", model.d)
    _same_tail_index(model, noise)
    u = np.random.default_rng(_seed(seed)).random((n_blocks, model.d))
    if noise.family == "frechet":
        u **= 1.0 / block_size  # the maximum of block_size uniforms
    else:
        u = -np.expm1(np.log(u) / block_size)  # their minimum
    x = _noise_max_linear(mlcm_from_weights(model), noise, u)
    return x * float(block_size) ** (-1.0 / model.alpha)
