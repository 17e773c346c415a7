"""Forward simulation and limit distributions for max-linear models.

Sampling draws i.i.d. regularly varying noise (Pareto or Frechet, both by
inverse-CDF transform) and evaluates the structural equations

    X_i = max(max_{k in pa(i)} c_ki * X_k, c_ii * Z_i)

node by node in a topological order of the DAG, one column at a time: the
parents' columns are final when node i is reached, so each node costs one
product for its noise and one product and one running maximum per parent.
That costs O(n * (|E| + d)) time and needs no coefficient matrix B.  The
draws go in row blocks of ``_ROWS``: one generator ``default_rng(seed)``
fills the uniforms of one block after another, which equals its (n, d) draw
to the bit, and each block is transformed and evaluated while it is in
cache.  So the (n, d) output is the only array that grows with n, beside a
few MB of block buffers.  A seed fixes the sample to the bit: every product
is one multiplication of the same two doubles and the maximum is exact, so
neither the order of the parents nor the row blocks change a value.  The
unrolled form ``max_j b_ji * Z_j`` rounds each path product in another
order, so it agrees only to a few units in the last place.  A draw that
overflows float64 raises :class:`ValidationError`.

Block maxima take each block's extreme uniform from its law instead of
drawing the block: the maximum of n independent uniforms has CDF u**n, the
law of V**(1/n) for one uniform V, and their minimum has the law of
1 - V**(1/n) (Devroye, *Non-Uniform Random Variate Generation*, 1986,
ch. V).  Clipping is monotone, the Frechet transform increases in u and the
Pareto transform decreases in it, and each step of the recursion, a product
with a positive weight and then a maximum, is monotone in every argument, so
maxima over draws commute with it node by node: the componentwise block
maximum of X is the recursion evaluated at the block maximum of the noise,
which is the noise of the block maximum (Frechet) or minimum (Pareto) of u.
So the sampler draws one uniform per block and node and maps it to its
block's extreme uniform: O(n_blocks * (|E| + d)) evaluation, whatever the
block size.  An unscaled block maximum that overflows float64 raises, as a
draw of :func:`sample` does.

The empirical tail dependence estimator is the standard exceedance ratio
above empirical marginal quantiles, and it reads only the tail.  Each
quantile is ``np.quantile`` to the bit, made from the m = n(1 - u) + O(1)
largest values of its column: one compare per value against a cut taken
from a strided subsample, then a partition of the few values above it
(see ``_tail_quantile`` for why the cut never changes the result).  The
counts come from the rows with at least one exceedance, in row blocks.
The limit distribution of scaled componentwise maxima is available in
closed form for Monte Carlo validation: ``2 + log G_ij`` at the
unit-Frechet scale points reproduces the tail dependence coefficient
exactly.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TailSampleError, ValidationError
from .mlcm import WeightedModel, mlcm_from_weights
from .tolerance import _check_tol, _count, _instance, _is_real, _rows, _seed, _shown, _tail_index

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
        family = self.family if isinstance(self.family, str) else ""
        family = family.strip().lower().replace("é", "e")
        if family not in _FAMILIES:
            message = f"unsupported noise family {_shown(self.family)!r}; use {_FAMILIES}"
            raise ValidationError(message)
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


_ROWS = 16384  # rows per block: a block's uniforms, noise and hits stay in cache
_STRIDE = 32  # every _STRIDE-th value of a column sets the cut of its tail


def _transform(u: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    # Inverse-CDF transform of uniforms into noise, in place.  The uniforms
    # arrive clamped into the open interval: _noise_max_linear clips them
    # while it copies them into the noise layout.  Overflow is left to it too.
    if noise.family == "frechet":
        np.log(u, out=u)
        np.negative(u, out=u)
    u **= -1.0 / noise.alpha
    return u


def _block_extreme(u: np.ndarray, noise: NoiseSpec, block_size: int) -> None:
    # Each uniform becomes the extreme of block_size uniforms, in place: their
    # maximum for Frechet noise, their minimum for Pareto noise.
    if noise.family == "frechet":
        u **= 1.0 / block_size
    else:
        np.log(u, out=u)
        np.divide(u, block_size, out=u)
        np.expm1(u, out=u)
        np.negative(u, out=u)


def _evaluate(model: WeightedModel, zt: np.ndarray, xt: np.ndarray, tmp: np.ndarray):
    """The structural equations for one row block, written into ``xt``.

    ``zt`` holds the block's noise transposed, (d, k), so every product reads
    a contiguous row, and ``xt`` is the (d, k) slice of the output; ``tmp``
    holds k values.  Nodes go in topological order, so the parents' rows of
    ``xt`` are final when a node reads them.
    """
    dag, weights = model.dag, model.edge_weights
    for i in dag.topological_order():
        x = xt[i - 1]
        np.multiply(zt[i - 1], model.noise_scales[i - 1], out=x)
        for k in dag.parents(i):
            np.multiply(xt[k - 1], weights[(k, i)], out=tmp)
            np.maximum(x, tmp, out=x)


def _same_tail_index(model: WeightedModel, noise: NoiseSpec) -> None:
    # The noise must have the model's tail index; checked before any draw.
    if noise.alpha != model.alpha:
        raise ValidationError(
            f"noise tail index {noise.alpha} differs from model tail index {model.alpha}"
        )


def _noise_max_linear(
    model: WeightedModel, noise: NoiseSpec, n: int, seed: int, block_size: int | None = None
) -> np.ndarray:
    # The model at n draws of its noise, as a column-major (n, d) array, or
    # with a block size at the extremes of n blocks of draws.  The (d, n)
    # output is the one array that grows with n: the uniforms are drawn,
    # clamped into the (d, k) noise layout, transformed and evaluated one
    # row block at a time.  x_i >= c_ii * z_i with c_ii > 0, so an infinite
    # noise value shows in x too.
    d = model.d
    rng = np.random.default_rng(seed)
    rows = min(n, _ROWS)
    xt = np.empty((d, n))
    u, zt, tmp = np.empty((rows, d)), np.empty((d, rows)), np.empty(rows)
    with np.errstate(over="ignore"):
        for start in range(0, n, _ROWS):
            stop = min(start + _ROWS, n)
            ub, zb, xb = u[: stop - start], zt[:, : stop - start], xt[:, start:stop]
            rng.random(out=ub)
            if block_size is not None:
                _block_extreme(ub, noise, block_size)
            np.clip(ub.T, 1e-300, 1.0 - 1e-16, out=zb)
            _evaluate(model, _transform(zb, noise), xb, tmp[: stop - start])
            if not np.isfinite(xb.max()):
                raise ValidationError(
                    f"{noise.family} noise with tail index {noise.alpha} overflowed float64; "
                    "a larger tail index keeps the draws finite"
                )
    return xt.T


def sample(model: WeightedModel, noise: NoiseSpec, n: int, seed: int) -> SampleBlock:
    """Draw ``n`` independent copies of the model, reproducibly per seed.

    The noise tail index must match the model's; mixing indices would
    silently change the standardized coefficient matrix the sample reflects.
    An ``n`` too large for an (n, d) float64 array raises before any draw.
    The values are a column-major (n, d) array, and the draws go in row
    blocks: the peak memory is that array plus a few MB.
    """
    _instance(model, WeightedModel, "model")
    _instance(noise, NoiseSpec, "noise")
    n = _rows(n, "sample size", model.d)
    _same_tail_index(model, noise)
    seed = _seed(seed)
    return SampleBlock(_noise_max_linear(model, noise, n, seed), seed, model, noise)


def _sample_values(block: SampleBlock) -> np.ndarray:
    # The values of a sample block: a real (n, d) array with n, d >= 1.
    # Finiteness is checked per column, where empirical_tdm reads them.
    values = _instance(block, SampleBlock, "block").values
    if not isinstance(values, np.ndarray):
        raise ValidationError(f"sample values must be a numpy array, got {type(values).__name__}")
    if values.dtype.kind not in "iuf":
        raise ValidationError(f"sample values must be real numbers, got dtype {values.dtype}")
    if values.ndim != 2:
        raise ValidationError(f"sample values must be a 2-D array, got {values.ndim}-D")
    if 0 in values.shape:
        raise ValidationError(
            f"sample values need at least one row and one column, got shape {values.shape}"
        )
    return values


def _tail_quantile(column: np.ndarray, u: float):
    """``np.quantile(column, u)``, bit for bit and in its dtype, from the tail.

    numpy's default 'linear' rule reads two order statistics: with the
    virtual index ``(n - 1) * u``, ``prev`` its floor and ``gamma`` the rest,
    it interpolates between the values of rank ``prev`` and ``prev + 1``
    (for 0 < u < 1 and n >= 2 the virtual index lies below n - 1).  Those
    are among the m = n - prev largest values.  A cut is taken from the
    strided subsample ``column[::_STRIDE]``, at about twice its share of
    the tail, and the candidates are the values at or above it.  If there
    are at least m of them, the m-th largest value of the column is at or
    above the cut, so the m largest values all lie among the candidates,
    and they are the m largest candidates: ranks ``prev`` and ``prev + 1``
    of the column are ranks k and k + 1 of the candidates, with k =
    len(candidates) - m.  Otherwise the whole column is partitioned.  So
    the cut moves the cost, never the result, and it is deterministic.  The
    interpolation is numpy's ``_lerp``, on the same numpy scalars.  Only
    its signs of zero depend on how numpy's partition of the whole column
    orders -0.0 and 0.0, so two zero order statistics are left to numpy.
    """
    n = len(column)
    virtual = (n - 1) * u
    prev = math.floor(virtual)
    gamma = virtual - prev
    m = n - prev
    strided = column[::_STRIDE]
    j = len(strided) - 2 * -(-m // _STRIDE)  # the subsample's rank of the cut
    tail = column
    if j > 0:
        candidates = column[column >= np.partition(strided, j)[j]]
        if len(candidates) >= m:
            tail = candidates
    k = len(tail) - m
    a, b = np.partition(tail, (k, k + 1))[k : k + 2]
    if a == 0 and b == 0:  # numpy's own partition picks the zeros' signs
        return np.quantile(column, u)
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def empirical_tdm(block: SampleBlock, u: float) -> np.ndarray:
    """Empirical tail dependence matrix at quantile level ``u``.

    chi_hat(i, j) pools the two conditional exceedance ratios:
    ``2 * #{both exceed} / (#{i exceeds} + #{j exceeds})`` with empirical
    marginal quantiles.  Requires at least 50 expected tail exceedances.
    The block's values must be a real (n, d) array of finite entries, with
    n, d >= 1.

    The cost is one finiteness test and about one compare per value for
    the quantiles, which partition only the tail of each column, plus one
    compare per value for the hits; the joint counts multiply only the rows
    with a hit.  Each quantile equals ``np.quantile(column, u)``, of the
    column as float64 when it holds integers, and every count is an exact
    integer, so the estimate is the whole-array one, bit for bit.  The
    memory beside the sample is a few MB of row blocks.
    """
    values = _sample_values(block)
    u = _check_tol(u, "quantile level")
    n, d = values.shape
    if n * (1.0 - u) < 50.0:
        raise TailSampleError(
            f"only {n * (1.0 - u):.1f} expected exceedances at u={u} with n={n}; "
            "need at least 50"
        )
    quantiles = np.empty(d)
    for i, column in enumerate(values.T):
        if not np.isfinite(column).all():
            raise ValidationError(f"sample column {i + 1} has a value that is not finite")
        if column.dtype.kind in "iu":  # interpolating in a narrow integer dtype would wrap
            column = column.astype(float)
        quantiles[i] = _tail_quantile(column, u)
    # The hits of one row block at a time, (d, k) along the contiguous axis
    # of a column-major sample, in one reused bool buffer.  Only the rows
    # with a hit are counted, in float64: every sum and product is an
    # integer below 2**53, so the counts are exact whatever the blocks.
    counts, joint = np.zeros(d), np.zeros((d, d))
    hits = np.empty((d, min(n, _ROWS)), dtype=bool)
    for start in range(0, n, _ROWS):
        stop = min(start + _ROWS, n)
        h = hits[:, : stop - start]
        np.greater(values[start:stop].T, quantiles[:, None], out=h)
        h = h[:, h.any(axis=0)].astype(float)
        counts += h.sum(axis=1)
        joint += h @ h.T
    if (counts == 0).any():
        raise TailSampleError("a margin has no exceedances above its empirical quantile")
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
    _instance(model, WeightedModel, "model")
    if i is None and j is not None:
        raise ValidationError("a bivariate evaluation needs both node arguments")
    nodes = [model.dag._check_node(v) for v in (i, j) if v is not None] or range(1, model.d + 1)
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
    with np.errstate(over="ignore"):  # a term beyond float64 is inf, where G is exactly 0
        return float(np.exp(-((b / point) ** model.alpha).max(axis=1).sum()))


def unit_frechet_points(model: WeightedModel) -> np.ndarray:
    """Per-margin scale points where ``-1/log G_i`` equals one.

    At these points ``2 + log G_ij`` equals the tail dependence coefficient
    of the pair.
    """
    b = mlcm_from_weights(_instance(model, WeightedModel, "model"))
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
    module docstring): O(n_blocks * d) draws and O(n_blocks * (|E| + d))
    evaluation, whatever the block size.  The peak memory is the
    column-major (n_blocks, d) output, scaled in place, plus a few MB.  An
    unscaled block maximum that overflows float64 raises
    :class:`ValidationError`, and so, before any draw, do a block size
    beyond float64 and a block count too large for an (n_blocks, d) float64
    array.
    """
    _instance(model, WeightedModel, "model")
    _instance(noise, NoiseSpec, "noise")
    block_size = _count(block_size, "block size")
    if block_size > sys.float_info.max:
        raise ValidationError("block size is too large for float64")
    n_blocks = _rows(n_blocks, "block count", model.d)
    _same_tail_index(model, noise)
    x = _noise_max_linear(model, noise, n_blocks, _seed(seed), block_size)
    x *= float(block_size) ** (-1.0 / model.alpha)
    return x
