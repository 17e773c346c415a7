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
answers off one analysis each, the last two off one residual pass.  A matrix
gated elsewhere skips the gate through ``_gated``.  The kernel takes the
intermediate node ``l`` in chunks, in a topological order of the support,
so it forms only the chains k < l < i, about a sixth of the d**3 triples.
Its temporaries hold at most ``_THROUGH_BLOCK`` elements (512 KB of
float64), or those of one ``l`` when that is larger, beside a reordered copy
of the matrix and the d x d outputs.

Each input kind has one check in :mod:`maxlindag.tolerance`, called by every
public function that reads it, matrices included (``_finite_square``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import IllConditionedError, ValidationError
from .graph import Dag, _dag_on, is_reachability_matrix
from .tolerance import (
    DEFAULT_TOL,
    Verdict,
    _check_tol,
    _verdict,
    _within,
    rel_residuals,
)
from .tolerance import _edge, _finite_square, _instance, _node, _positive, _positive_diagonal
from .tolerance import _tail_index

# Element cap on each temporary of the through kernel; a matrix whose d**3
# triples fit under it is one chunk, in the order given.
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
        d = _instance(self.dag, Dag, "dag").d
        keys = [_edge(pair, d) for pair in self.edge_weights]
        weights = dict(zip(keys, _positive(self.edge_weights.values(), "edge weights")))
        if set(weights) != set(self.dag.edges):
            raise ValidationError("edge_weights keys must match the DAG edge set")
        scales = _positive(self.noise_scales, "noise scales")
        if len(scales) != d:
            raise ValidationError(f"expected {d} noise scales, got {len(scales)}")
        alpha = _tail_index(self.alpha)
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
    Each column is one numpy call over its parents' columns; every product
    is one multiplication and the maximum is exact.
    """
    model = _instance(model, WeightedModel, "model")
    b = np.diag(model.noise_scales)  # C-contiguous, as standardize's column sums expect
    for i in model.dag.topological_order():
        if parents := model.dag.parents(i):
            weights = [model.edge_weights[(k, i)] for k in parents]
            col = b[:, i - 1]
            np.maximum(col, (b[:, [k - 1 for k in parents]] * weights).max(axis=1), out=col)
    return b


def sign_pattern(b: np.ndarray) -> np.ndarray:
    """0/1 support pattern of a nonnegative matrix."""
    b = _finite_square(b)
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
    b = _positive_diagonal(b)
    alpha = _tail_index(alpha)
    with np.errstate(all="ignore"):
        powered = b**alpha
        bbar = powered / powered.sum(axis=0)
    return _kept_columns(bbar, alpha)


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
    on the result with the same ``alpha`` recovers ``bbar``.  ``betas`` is
    one scaling for every column or one per column.  A column that
    overflows, or whose diagonal entry underflows to zero, in float64
    raises :class:`IllConditionedError`.
    """
    bbar = _positive_diagonal(bbar)
    alpha = _tail_index(alpha)
    d = bbar.shape[0]
    beta = _positive(betas if isinstance(betas, Iterable) else (betas,), "column scalings")
    if len(beta) not in (1, d):
        raise ValidationError(f"expected 1 or {d} column scalings, got {len(beta)}")
    with np.errstate(all="ignore"):  # one scaling per column, or one for all
        b = bbar ** (1.0 / alpha) * np.asarray(beta)
    return _kept_columns(b, 1.0 / alpha)


def _through(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest ``(b_kl * b_li) / b_ll`` over chains k -> l -> i.

    Only intermediate nodes ``l`` other than ``k`` and ``i`` with
    ``b_kl > 0`` and ``b_li > 0`` count.  Returns ``(hi, lo)``; pairs without
    such an ``l`` get ``-inf`` and ``inf``.  ``b`` must have passed the
    support gate of :func:`_analysis`.

    The loop runs over chunks ``[l0, l1)`` of the intermediate node.  In a
    topological order of the support a chain has k < l < i, so a chunk only
    meets rows ``[0, l1)`` and columns ``[l0, d)``: about a sixth of the d**3
    triples is formed.  The order sorts nodes by their closed ancestor
    counts, stably; under the support gate a strict ancestor has strictly
    fewer ancestors.  When the whole cube fits one chunk (``d**3 <=
    _THROUGH_BLOCK``) no order is needed, since one chunk over every ``l``
    is valid in any order, and none is made.  Otherwise each chunk's
    temporaries hold at most ``_THROUGH_BLOCK`` elements, or the ones of a
    single ``l``, and the permutation is undone at the end.

    Every through value is formed as in the scalar formula, product first
    and then the division, and maxima and minima are exact in any order, so
    ``hi`` and ``lo`` are bit-identical to the scalar triple loop, whatever
    the chunks and the order.  A chained product or through value outside
    the normal range of float64 raises :class:`IllConditionedError` naming
    its pair: there an overflow or the digits lost to an underflow would
    decide the verdicts.  The kernel runs with floating-point overflow and
    underflow raising, so a matrix whose values all stay normal pays no
    check; any other runs again with them ignored, and is then checked.
    """
    d = b.shape[0]
    order, m = None, b
    if d**3 > _THROUGH_BLOCK:
        order = np.argsort((b > 0).sum(axis=0), kind="stable")
        m = b[np.ix_(order, order)]
    try:
        with np.errstate(over="raise", under="raise"):
            hi, lo = _chained_extremes(m)
        normal = True
    except FloatingPointError:  # some product or quotient left the normal range
        with np.errstate(over="ignore", under="ignore"):
            hi, lo = _chained_extremes(m)
        normal = False
    if order is not None:
        # Back to the given order in place, through m, which is done with:
        # no further d x d copy.  Mode "raise" would buffer.
        back = np.argsort(order)
        for out in (hi, lo):
            np.take(out, back, axis=0, out=m, mode="wrap")
            np.take(m, back, axis=1, out=out, mode="wrap")
    if not normal:
        _normal_chains(b, hi, lo)
    return hi, lo


def _chained_extremes(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The kernel of _through on m, whose support is in topological order
    # unless one chunk covers every l.
    d = m.shape[0]
    off = m <= 0
    np.fill_diagonal(off, True)
    diag = np.diag(m)[:, None]
    l0 = 0
    while l0 < d:
        # The largest chunk with l1 * (l1 - l0) * d <= _THROUGH_BLOCK, at
        # least one l: its temporaries stay within the cap with room to spare
        # (its columns are d - l0 of d), and the first chunk is the whole
        # cube exactly when d**3 fits.
        step = (math.isqrt(l0 * l0 + 4 * (_THROUGH_BLOCK // d)) - l0) // 2
        l1 = min(d, l0 + max(1, step))
        values = m[:l1, l0:l1, None] * m[l0:l1, l0:]
        values /= diag[l0:l1]
        off_chain = off[:l1, l0:l1, None] | off[l0:l1, l0:]
        np.copyto(values, -np.inf, where=off_chain)
        top = values.max(axis=1)
        np.copyto(values, np.inf, where=off_chain)
        bottom = values.min(axis=1)
        if l0 == 0:
            if l1 == d:  # one chunk: every pair
                return top, bottom
            hi, lo = np.full((d, d), -np.inf), np.full((d, d), np.inf)
            hi[:l1], lo[:l1] = top, bottom
        else:
            np.maximum(hi[:l1, l0:], top, out=hi[:l1, l0:])
            np.minimum(lo[:l1, l0:], bottom, out=lo[:l1, l0:])
        l0 = l1
    return hi, lo


def _normal_chains(b: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    # Raise unless every chained product b_kl * b_li and through value is a
    # normal float64.  Through l, the smallest chained product joins the
    # smallest entry into l with the smallest entry out of l.
    tiny = np.finfo(float).tiny
    chain = np.where(b > 0, b, np.inf)
    np.fill_diagonal(chain, np.inf)
    into, out_of = chain.min(axis=0), chain.min(axis=1)
    with np.errstate(over="ignore", under="ignore"):
        short = into * out_of < tiny
    bad = (hi == np.inf) | (lo < tiny)
    if bad.any():
        k, i = np.argwhere(bad)[0]
    elif short.any():
        l = np.argmax(short)
        k, i = np.argmin(chain[:, l]), np.argmin(chain[l])
    else:
        return
    raise IllConditionedError(
        f"a chained product or through value of pair ({k + 1},{i + 1}) "
        "leaves the normal range of float64"
    )


def max_weighted_triple(
    bbar: np.ndarray, j: int, k: int, i: int, tol: float = DEFAULT_TOL
) -> Verdict:
    """Is the maximum j-to-i path weight realized through ``k``?

    Requires a nonnegative matrix with positive diagonal, ``j`` strictly
    above ``k`` and ``k`` strictly above ``i`` in the support pattern.  True
    iff ``b_ji == b_jk * b_ki / b_kk`` within ``tol``; the left side always
    dominates the right for valid matrices.  As in the matrix checks, a
    product ``b_jk * b_ki`` or through value outside the normal range of
    float64 raises :class:`IllConditionedError` naming the triple.
    """
    tol = _check_tol(tol)
    bbar = _positive_diagonal(bbar)
    j, k, i = (_node(v, bbar.shape[0]) for v in (j, k, i))
    if j == k or bbar[j - 1, k - 1] <= 0:
        raise ValidationError(f"node {j} is not a strict ancestor of {k}")
    if k == i or bbar[k - 1, i - 1] <= 0:
        raise ValidationError(f"node {k} is not a strict ancestor of {i}")
    with np.errstate(all="ignore"):
        product = bbar[j - 1, k - 1] * bbar[k - 1, i - 1]
        through = product / bbar[k - 1, k - 1]
    if not all(np.finfo(float).tiny <= abs(x) < np.inf for x in (product, through)):
        raise IllConditionedError(
            f"a chained product or through value of triple ({j},{k},{i}) "
            "leaves the normal range of float64"
        )
    return _verdict(float(rel_residuals(bbar[j - 1, i - 1], through)), tol)


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
        return _verdict(residual, tol, "recomposition")

    def structure(self, tol: float) -> tuple[np.ndarray, Verdict]:
        # The minimum-DAG edge mask and the max-weighted verdict, from one
        # residual pass of b against hi over the chained pairs; a pair with
        # no chain keeps its entry.
        if self.fault:
            raise ValidationError(self.fault)
        chained = self.hi != -np.inf
        direct, hi = self.b[chained], self.hi[chained]
        residuals = rel_residuals(direct, hi)
        redundant = np.zeros_like(chained)
        redundant[chained] = (direct <= hi) | _within(residuals, tol)
        # Exact to the bit while a through value stays below 2 * b_ji, the
        # only range where a residual can pass any tolerance below one half.
        worst = float(max(residuals.max(initial=0.0),
                          rel_residuals(direct, self.lo[chained]).max(initial=0.0)))
        return (self.b > 0) & ~redundant, _verdict(worst, tol)


def _analysis(b: np.ndarray) -> _Analysis:
    # The support gate, then one kernel pass if it holds; b must be square and finite.
    b = _finite_square(b)
    if (b < 0).any():
        return _Analysis(b, "coefficient matrix has negative entries")
    if not is_reachability_matrix(b > 0):
        return _Analysis(b, "support pattern is not a reachability matrix of a DAG")
    return _gated(b)


def _gated(b: np.ndarray) -> _Analysis:
    # The analysis of a float matrix that has passed the support gate.
    return _Analysis(b, None, *_through(b))


def is_rmwm_mlcm(bbar: np.ndarray, tol: float = DEFAULT_TOL) -> Verdict:
    """Does ``bbar`` belong to a model in which every path is max-weighted?

    Checks ``b_ji == b_jk * b_ki / b_kk`` for every chained triple of the
    support pattern.  The pattern itself must be a reachability matrix;
    anything else is a precondition violation, not a negative verdict.  A
    relative residual against ``b_ji`` peaks at the largest or the smallest
    through value, so only those two are compared.
    """
    tol = _check_tol(tol)
    return _analysis(bbar).structure(tol)[1]


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
    tol = _check_tol(tol)
    return _dag_on(_analysis(b).structure(tol)[0])


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
    tol = _check_tol(tol)
    return _analysis(bbar).is_mlcm(tol)


def homogeneous_model(dag: Dag, alpha: float) -> WeightedModel:
    """Max-weighted model whose coefficients depend only on ancestor counts.

    With ``c_ii = |An(i)|**(-1/alpha)`` and ``c_ki = (|An(k)|/|An(i)|)**(1/alpha)``
    every j-to-i path carries the same weight ``|An(i)|**(-1/alpha)``, so all
    paths are max-weighted on any DAG.
    """
    alpha = _tail_index(alpha)
    n_an = _instance(dag, Dag, "dag")._reachability().sum(axis=0).tolist()  # |An(i)| at i - 1
    scales = tuple(n ** (-1.0 / alpha) for n in n_an)
    weights = {(k, i): (n_an[k - 1] / n_an[i - 1]) ** (1.0 / alpha) for k, i in dag.edges}
    return WeightedModel(dag, weights, scales, alpha)


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
    with np.errstate(over="ignore"):  # WeightedModel rejects a weight beyond float64
        weights = {(k, i): b[k - 1, i - 1] / b[k - 1, k - 1] for k, i in dag.edges}
    return WeightedModel(dag, weights, tuple(np.diag(b)), alpha)
