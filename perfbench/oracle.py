"""Known answers computed with plain numpy, independently of maxlindag.

Every expected value the benchmark checks against comes from the model's
construction: edge weights, noise scales and tail index.  None of these
functions call the library, so a defect in a library kernel cannot hide
itself by also corrupting the expected value.
"""
from __future__ import annotations

import math

import numpy as np


def reachability(d: int, edges) -> np.ndarray:
    """0/1 matrix R with R[j-1, i-1] = 1 iff j = i or j reaches i.

    Transitive closure by repeated boolean squaring.
    """
    r = np.eye(d)
    for k, i in edges:
        r[k - 1, i - 1] = 1.0
    while True:
        nxt = ((r @ r) > 0).astype(float)
        if np.array_equal(nxt, r):
            return r.astype(np.int64)
        r = nxt


def _max_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (a (x) b)[j, i] = max_k a[j, k] * b[k, i]
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        np.maximum(out, a[:, k, None] * b[None, k, :], out=out)
    return out


def coefficient_matrix(d: int, edge_weights, noise_scales) -> np.ndarray:
    """B with b_ji the maximum j-to-i path weight, c_jj times the edge weights.

    Kleene star of the edge-weight matrix in the max-times semiring, by
    repeated squaring: after s squarings every path of up to 2**s edges is
    covered, and a DAG path has at most d - 1 edges.
    """
    star = np.eye(d)
    for (k, i), c in edge_weights.items():
        star[k - 1, i - 1] = c
    for _ in range(max(1, math.ceil(math.log2(max(d, 2))))):
        star = _max_times(star, star)
    return np.asarray(noise_scales, dtype=float)[:, None] * star


def standardized(b: np.ndarray, alpha: float) -> np.ndarray:
    """Columns of b**alpha rescaled to sum to one."""
    powered = b**alpha
    return powered / powered.sum(axis=0)


def tail_dependence(bbar: np.ndarray) -> np.ndarray:
    """chi(i, j) = sum_k min(bbar_ki, bbar_kj)."""
    d = bbar.shape[0]
    chi = np.empty((d, d))
    for j in range(d):
        chi[:, j] = np.minimum(bbar, bbar[:, j : j + 1]).sum(axis=0)
    return chi


def chained_triples(matrix: np.ndarray) -> int:
    """Triples j -> k -> i of distinct nodes in the support pattern.

    Node k sits between |an(k)| ancestors and |de(k)| descendants, so the
    count is sum_k |an(k)| * |de(k)|.
    """
    pattern = np.asarray(matrix) > 0
    np.fill_diagonal(pattern, False)
    return int((pattern.sum(axis=0) * pattern.sum(axis=1)).sum())


def chained_pair(reach: np.ndarray):
    """First (j, i), 1-based, with j reaching i through a third node, or None."""
    strict = reach.astype(float) - np.eye(reach.shape[0])
    through = (strict @ strict) > 0
    hits = np.argwhere(through)
    if not len(hits):
        return None
    j, i = hits[0]
    return int(j) + 1, int(i) + 1


def max_weighted_residual(bbar: np.ndarray) -> float:
    """Worst relative gap between b_ji and b_jk * b_ki / b_kk over chained triples."""
    pattern = bbar > 0
    np.fill_diagonal(pattern, False)
    worst = 0.0
    for k in range(bbar.shape[0]):
        above = np.flatnonzero(pattern[:, k])
        below = np.flatnonzero(pattern[k, :])
        if not len(above) or not len(below):
            continue
        through = np.outer(bbar[above, k], bbar[k, below]) / bbar[k, k]
        direct = bbar[np.ix_(above, below)]
        gap = np.abs(direct - through) / np.maximum(direct, through)
        worst = max(worst, float(gap.max()))
    return worst


def frechet_ks(maxima: np.ndarray, b: np.ndarray, alpha: float) -> float:
    """Largest Kolmogorov-Smirnov distance of the scaled block maxima margins.

    Margin i of the limit law is Frechet with scale sum_j b_ji**alpha.
    """
    scales = (b**alpha).sum(axis=0)
    worst = 0.0
    n = maxima.shape[0]
    for i in range(maxima.shape[1]):
        xs = np.sort(maxima[:, i])
        cdf = np.exp(-scales[i] * xs**-alpha)
        upper = np.abs(np.arange(1, n + 1) / n - cdf).max()
        lower = np.abs(np.arange(0, n) / n - cdf).max()
        worst = max(worst, float(upper), float(lower))
    return worst


def dkw_bound(n: int, false_alarm: float) -> float:
    """Distance a correct empirical CDF of n draws exceeds with this probability.

    Dvoretzky-Kiefer-Wolfowitz: P(D > eps) <= 2 exp(-2 n eps**2).
    """
    return math.sqrt(math.log(2.0 / false_alarm) / (2.0 * n))
