"""Brute-force reference implementations.

Everything here works on raw (d, edges) pairs and plain arrays, independent
of the library's data structures and algorithms, so results can be frozen
into tests or compared directly.  Only meant for small instances.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


def closed_ancestors(d: int, edges: set[tuple[int, int]]) -> dict[int, set[int]]:
    """An(i) per node by fixpoint iteration."""
    an = {i: {i} for i in range(1, d + 1)}
    changed = True
    while changed:
        changed = False
        for k, i in edges:
            new = an[k] - an[i]
            if new:
                an[i] |= new
                changed = True
    return an


def closed_descendants(d: int, edges: set[tuple[int, int]]) -> dict[int, set[int]]:
    de = closed_ancestors(d, {(i, k) for k, i in edges})
    return de


def reachability(d: int, edges: set[tuple[int, int]]) -> np.ndarray:
    an = closed_ancestors(d, edges)
    r = np.zeros((d, d), dtype=int)
    for i in range(1, d + 1):
        for j in an[i]:
            r[j - 1, i - 1] = 1
    return r


def is_reachability_matrix(matrix) -> bool:
    """The library's support gate before its boolean fast path, frozen.

    0/1 test on every input, an int64 copy, and the closure read through
    fancy indexing of a float product.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if not ((m == 0) | (m == 1)).all():
        return False
    m = m.astype(np.int64)
    if not (np.diag(m) == 1).all():
        return False
    if (m & m.T).sum() != m.shape[0]:
        return False
    closure = (m.astype(float) @ m.astype(float)) > 0
    return bool((m[closure] == 1).all())


def all_paths(edges: set[tuple[int, int]], start: int, goal: int) -> list[tuple[int, ...]]:
    """All directed paths start -> goal, by exhaustive DFS."""
    children: dict[int, list[int]] = {}
    for k, i in edges:
        children.setdefault(k, []).append(i)
    paths = []
    stack = [(start, (start,))]
    while stack:
        node, path = stack.pop()
        if node == goal:
            paths.append(path)
            continue
        for child in children.get(node, ()):
            if child not in path:
                stack.append((child, path + (child,)))
    return paths


def transitive_reduction_edges(d: int, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Edges that are the only path between their endpoints."""
    return {(k, i) for k, i in edges if len(all_paths(edges, k, i)) == 1}


def mlcm(d: int, edges: set[tuple[int, int]], weights: dict, scales: dict) -> np.ndarray:
    """Coefficient matrix by explicit path enumeration and maximization."""
    b = np.zeros((d, d))
    for i in range(1, d + 1):
        b[i - 1, i - 1] = scales[i]
        for j in range(1, d + 1):
            if j == i:
                continue
            best = 0.0
            for path in all_paths(edges, j, i):
                w = scales[j]
                for a, bnode in zip(path, path[1:]):
                    w *= weights[(a, bnode)]
                best = max(best, w)
            b[j - 1, i - 1] = best
    return b


def log_uniform_weights(
    d: int, edges: set[tuple[int, int]], lo: float, hi: float, rng: np.random.Generator,
) -> tuple[dict[tuple[int, int], float], tuple[float, ...]]:
    """Edge weights in sorted edge order, then d noise scales: one scalar draw each."""
    def draw() -> float:
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    weights = {edge: draw() for edge in sorted(edges)}
    return weights, tuple(draw() for _ in range(d))


def mlcm_by_edges(d: int, edges: set[tuple[int, int]], weights: dict, scales) -> np.ndarray:
    """Coefficient matrix by one ``np.maximum`` per edge, columns by ancestor count.

    A node has more ancestors than each of its parents, so every parent's
    column is final before it is read.
    """
    an = closed_ancestors(d, edges)
    b = np.zeros((d, d))
    for i in sorted(range(1, d + 1), key=lambda v: len(an[v])):
        col = np.zeros(d)
        for k, j in sorted(edges):
            if j == i:
                np.maximum(col, b[:, k - 1] * weights[(k, i)], out=col)
        col[i - 1] = scales[i - 1]
        b[:, i - 1] = col
    return b


def tdm(bbar: np.ndarray) -> np.ndarray:
    """Tail dependence by the defining sum over explicit common supports."""
    d = bbar.shape[0]
    chi = np.zeros((d, d))
    supports = [set(np.flatnonzero(bbar[:, i] > 0)) for i in range(d)]
    for i in range(d):
        for j in range(d):
            chi[i, j] = sum(
                min(bbar[k, i], bbar[k, j]) for k in supports[i] & supports[j]
            )
    return chi


def max_cliques(d: int, adjacency: dict[int, frozenset[int]]) -> list[tuple[int, ...]]:
    """Maximum cliques by scanning all node subsets."""
    best: list[tuple[int, ...]] = []
    best_size = 0
    nodes = list(range(1, d + 1))
    for r in range(1, d + 1):
        for subset in itertools.combinations(nodes, r):
            if all(b in adjacency[a] for a in subset for b in subset if a < b):
                if r > best_size:
                    best, best_size = [subset], r
                elif r == best_size:
                    best.append(subset)
    return sorted(best)


def bron_kerbosch_cliques(adjacency: dict[int, frozenset[int]]) -> list[tuple[int, ...]]:
    """Maximum cliques from every maximal one, by pivoted Bron-Kerbosch on frozensets."""
    cliques: list[frozenset[int]] = []
    _bron_kerbosch(adjacency, frozenset(), set(adjacency), set(), cliques)
    best = max(len(c) for c in cliques)
    return sorted(tuple(sorted(c)) for c in cliques if len(c) == best)


def _bron_kerbosch(
    adjacency: dict[int, frozenset[int]],
    clique: frozenset[int],
    candidates: set[int],
    excluded: set[int],
    out: list[frozenset[int]],
) -> None:
    if not candidates and not excluded:
        out.append(clique)
        return
    pivot = max(candidates | excluded, key=lambda v: len(adjacency[v] & candidates))
    for v in sorted(candidates - adjacency[pivot]):
        _bron_kerbosch(
            adjacency, clique | {v}, candidates & adjacency[v], excluded & adjacency[v], out
        )
        candidates.remove(v)
        excluded.add(v)


def linear_extensions(d: int, edges: set[tuple[int, int]]) -> list[tuple[int, ...]]:
    """All causal node orders, by filtering the full permutation set."""
    out = []
    for perm in itertools.permutations(range(1, d + 1)):
        rank = {v: r for r, v in enumerate(perm)}
        if all(rank[k] < rank[i] for k, i in edges):
            out.append(perm)
    return out


def causal_orderings_by_recursion(d: int, edges: set[tuple[int, int]]):
    """The library's causal-ordering search before its explicit stack, frozen.

    Yields node orders in lexicographic order; one frame per placed node.
    """
    children = {v: {i for k, i in edges if k == v} for v in range(1, d + 1)}
    indeg = {v: sum(1 for _, i in edges if i == v) for v in range(1, d + 1)}
    yield from _extensions(d, children, indeg, [])


def _extensions(d: int, children: dict[int, set[int]], indeg: dict[int, int], prefix: list[int]):
    if len(prefix) == d:
        yield tuple(prefix)
        return
    for v in sorted(indeg):
        if indeg[v] == 0:
            del indeg[v]
            for c in children[v]:
                indeg[c] -= 1
            prefix.append(v)
            yield from _extensions(d, children, indeg, prefix)
            prefix.pop()
            for c in children[v]:
                indeg[c] += 1
            indeg[v] = 0


def is_partial_order(pattern: np.ndarray) -> bool:
    """Reflexive, antisymmetric and transitive, pair by pair."""
    d = pattern.shape[0]
    if not np.diag(pattern).all():
        return False
    for i in range(d):
        for j in range(d):
            if i != j and pattern[i, j] and pattern[j, i]:
                return False
            for k in range(d):
                if pattern[i, j] and pattern[j, k] and not pattern[i, k]:
                    return False
    return True


def is_mlcm_by_reconstruction(bbar: np.ndarray, tol: float = 1e-9) -> bool:
    """Validity oracle: rebuild from the full reachability DAG and compare.

    Puts weight b_ki / b_kk on every strict ancestor pair, recomputes the
    coefficient matrix by path enumeration, and accepts iff the result
    matches entrywise.  Also verifies the support pattern is a partial
    order first.
    """
    d = bbar.shape[0]
    if (bbar < 0).any() or (np.diag(bbar) <= 0).any():
        return False
    pattern = bbar > 0
    if not is_partial_order(pattern):
        return False
    edges = {(j + 1, i + 1) for j in range(d) for i in range(d) if j != i and pattern[j, i]}
    weights = {(k, i): bbar[k - 1, i - 1] / bbar[k - 1, k - 1] for k, i in edges}
    scales = {i: bbar[i - 1, i - 1] for i in range(1, d + 1)}
    rebuilt = mlcm(d, edges, weights, scales)
    scale = np.maximum(np.abs(rebuilt), np.abs(bbar))
    return bool((np.abs(rebuilt - bbar) <= tol * np.maximum(scale, 1.0)).all())


def _rel(a: float, b: float) -> float:
    # |a - b| / max(|a|, |b|), zero when equal
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _strict_ancestors(b: np.ndarray) -> list[list[int]]:
    d = b.shape[0]
    return [[k for k in range(d) if k != i and b[k, i] > 0] for i in range(d)]


def minimum_ml_dag_edges(b: np.ndarray, tol: float = 1e-9) -> set[tuple[int, int]]:
    """Edges k -> i whose direct coefficient beats every chained route.

    Triple loop over (i, k, l): the edge goes when some intermediate l has
    ``b_ki <= b_kl * b_li / b_ll`` or lies within ``tol`` of it.
    """
    ancestors = _strict_ancestors(b)
    edges = set()
    for i in range(b.shape[0]):
        for k in ancestors[i]:
            redundant = False
            for l in ancestors[i]:
                if l == k or b[k, l] <= 0:
                    continue
                through = b[k, l] * b[l, i] / b[l, l]
                if b[k, i] <= through or _rel(b[k, i], through) <= tol:
                    redundant = True
                    break
            if not redundant:
                edges.add((k + 1, i + 1))
    return edges


def is_mlcm_by_recomposition(bbar: np.ndarray, tol: float = 1e-9) -> tuple[bool, str | None]:
    """Validity as ``(ok, reason)`` by recomposing the matrix from its minimum DAG.

    A negative entry or a support that is not a partial order gives
    "sign_pattern".  Otherwise the weights ``c_ki = b_ki / b_kk`` and
    ``c_ii = b_ii`` are read off the minimum DAG, the coefficient matrix is
    recomputed column by column in topological order, and the matrix is
    accepted iff every entry is reproduced within a relative ``tol``; else
    "recomposition".
    """
    pattern = bbar > 0
    if (bbar < 0).any() or not is_partial_order(pattern):
        return False, "sign_pattern"
    d = bbar.shape[0]
    edges = minimum_ml_dag_edges(bbar, tol)
    rebuilt = np.zeros((d, d))
    for i in sorted(range(d), key=lambda i: pattern[:, i].sum()):  # ancestors first
        for k in range(d):
            if (k + 1, i + 1) in edges:
                weight = bbar[k, i] / bbar[k, k]
                rebuilt[:, i] = np.maximum(rebuilt[:, i], rebuilt[:, k] * weight)
        rebuilt[i, i] = bbar[i, i]
    worst = max(_rel(a, b) for a, b in zip(rebuilt.flat, bbar.flat))
    return (True, None) if worst <= tol else (False, "recomposition")


def mlcm_shortfall(bbar: np.ndarray) -> float:
    """Largest ``rel(b_ki, b_kl * b_li / b_ll)`` over chains where the route exceeds ``b_ki``."""
    ancestors = _strict_ancestors(bbar)
    worst = 0.0
    for i in range(bbar.shape[0]):
        for k in ancestors[i]:
            for l in ancestors[i]:
                if l != k and bbar[k, l] > 0:
                    through = bbar[k, l] * bbar[l, i] / bbar[l, l]
                    if through > bbar[k, i]:
                        worst = max(worst, _rel(bbar[k, i], through))
    return worst


def through_values(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest ``b_kl * b_li / b_ll`` over chains k -> l -> i, by the definition.

    Scalar triple loop over every k, every l other than k with
    ``b_kl > 0`` and every i other than k and l with ``b_li > 0``, each
    value formed as product first, then the division.  Pairs without such
    an l get ``-inf`` and ``inf``.  Returns ``(hi, lo)``.
    """
    d = b.shape[0]
    rows = b.tolist()  # Python floats: the same float64 arithmetic, faster to loop over
    hi = [[-math.inf] * d for _ in range(d)]
    lo = [[math.inf] * d for _ in range(d)]
    for k in range(d):
        for l in range(d):
            if l == k or rows[k][l] <= 0:
                continue
            for i in range(d):
                if i in (k, l) or rows[l][i] <= 0:
                    continue
                value = rows[k][l] * rows[l][i] / rows[l][l]
                hi[k][i] = max(hi[k][i], value)
                lo[k][i] = min(lo[k][i], value)
    return np.array(hi), np.array(lo)


def rmwm_worst_residual(bbar: np.ndarray) -> float:
    """Largest relative gap between b_ji and b_jk * b_ki / b_kk over chains j -> k -> i."""
    ancestors = _strict_ancestors(bbar)
    worst = 0.0
    for i in range(bbar.shape[0]):
        for k in ancestors[i]:
            for j in ancestors[k]:
                through = bbar[j, k] * bbar[k, i] / bbar[k, k]
                worst = max(worst, _rel(bbar[j, i], through))
    return worst


def clique_filter(chi: np.ndarray, clique, tol: float = 1e-9) -> bool:
    """Initial-set filter pair by pair: chi(i, j) >= sum_W min(chi(k, i), chi(k, j)) - tol."""
    d = chi.shape[0]
    widx = sorted(v - 1 for v in clique)
    rest = [v for v in range(d) if v not in widx]
    for i in rest:
        for j in rest:
            if j >= i and chi[i, j] < np.minimum(chi[widx, i], chi[widx, j]).sum() - tol:
                return False
    return True


def chartdm_conditions(
    d: int, edges: set[tuple[int, int]], chi: np.ndarray, tol: float = 1e-9
) -> bool:
    """Independent evaluation of the four max-weighted TDM conditions."""
    an_closed = closed_ancestors(d, edges)
    de_closed = closed_descendants(d, edges)
    parents = {i: {k for k, j in edges if j == i} for i in range(1, d + 1)}

    for i in range(1, d + 1):
        for j in range(1, d + 1):
            positive = chi[i - 1, j - 1] > tol or i == j
            if positive != bool(an_closed[i] & an_closed[j]):
                return False

    order = sorted(range(1, d + 1), key=lambda v: len(an_closed[v]))
    diag: dict[int, float] = {}
    for i in order:
        diag[i] = 1.0 - sum(
            diag[k] * chi[k - 1, i - 1] for k in an_closed[i] - {i}
        )
    if any(v <= 0.0 for v in diag.values()):
        return False

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)

    for i in range(1, d + 1):
        for j in an_closed[i] - {i}:
            for k in (de_closed[j] - {j}) & parents[i]:
                if not close(chi[j - 1, i - 1], chi[j - 1, k - 1] * chi[k - 1, i - 1]):
                    return False

    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            if j in an_closed[i] or i in an_closed[j]:
                continue
            shared = an_closed[i] & an_closed[j]
            if not shared:
                continue
            combo = sum(
                diag[k] * min(chi[k - 1, i - 1], chi[k - 1, j - 1]) for k in shared
            )
            if not close(chi[i - 1, j - 1], combo):
                return False
    return True


def recover_by_ordering(chi: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """Row recursion for a node order, written independently of the library."""
    d = len(order)
    b = np.zeros((d, d))
    placed: list[int] = []
    for j in order:
        for i in range(1, d + 1):
            if i in placed:
                continue
            acc = sum(min(b[k - 1, i - 1], b[k - 1, j - 1]) for k in placed)
            b[j - 1, i - 1] = chi[j - 1, i - 1] - acc
        placed.append(j)
    return b


def _partial_row(chi: np.ndarray, bbar: np.ndarray, placed, node: int) -> np.ndarray:
    # Row of `node` given the rows already placed; 1-based node, full width.
    # The placed rows are summed in node order, whatever order they were
    # placed in.
    row = chi[node - 1].copy()
    if placed:
        idx = [p - 1 for p in sorted(placed)]
        prior = bbar[idx, :]
        at_node = bbar[idx, node - 1]
        row -= np.minimum(prior, at_node[:, None]).sum(axis=0)
    return row


def _settle_row(row: np.ndarray, zero_cols, node: int, tol: float) -> np.ndarray:
    # Zero the forced columns, reject values below -tol, snap |v| <= tol to 0.
    for c in zero_cols:
        row[c - 1] = 0.0
    worst = row.min()
    if worst < -tol:
        raise ValueError(f"row recursion for node {node} produced {worst!r}")
    row[np.abs(row) <= tol] = 0.0
    return row


def recover_by_rows(chi: np.ndarray, order, reach=None, tol: float = 1e-9) -> np.ndarray:
    """Row recursion in ``order`` (1-based), one row at a time.

    Without ``reach``, row j is zero on the columns placed before it (the
    recovery from a causal ordering); with it, row j is zero outside the
    descendants ``reach[j - 1]`` (the recovery from the reachability
    matrix).  Raises ``ValueError`` on a value below ``-tol``; a diagonal
    entry of zero is returned as it is.
    """
    d = chi.shape[0]
    bbar = np.zeros((d, d))
    placed: list[int] = []
    for node in order:
        row = _partial_row(chi, bbar, placed, node)
        if reach is None:
            outside = placed
        else:
            outside = [i for i in range(1, d + 1) if not reach[node - 1, i - 1]]
        bbar[node - 1] = _settle_row(row, outside, node, tol)
        placed.append(node)
    return bbar


def down_set_coefficients(d: int, edges: set[tuple[int, int]], members: set[int]) -> dict[int, float]:
    """``coeff_k = 1 - sum_{l in de(k) & members} coeff_l``, sinks of ``members`` first."""
    de = closed_descendants(d, edges)
    coeffs: dict[int, float] = {}
    pending = set(members)
    while pending:
        for k in sorted(pending):
            below = (de[k] - {k}) & members
            if below <= coeffs.keys():
                coeffs[k] = 1.0 - sum(coeffs[l] for l in below)
                pending.remove(k)
    return coeffs


def rmwm_diagonal(chi: np.ndarray, order, reach: np.ndarray) -> np.ndarray:
    """``bbar_ii = 1 - sum_{k in an(i)} bbar_kk * chi(k, i)`` over a topological ``order``."""
    d = chi.shape[0]
    strict = reach.astype(bool) & ~np.eye(d, dtype=bool)
    diag = np.zeros(d)
    for i in order:
        an = strict[:, i - 1]
        diag[i - 1] = 1.0 - (diag[an] * chi[an, i - 1]).sum()
    return diag


def enumerate_by_permutation_scan(chi: np.ndarray, tol: float = 1e-9) -> set[bytes]:
    """Keys of all valid standardized matrices, scanning every node order.

    Validity and tail dependence agreement are both decided by the
    brute-force oracles above, so this is a full independent reference for
    the enumeration output (practical for d <= 5).
    """
    d = chi.shape[0]
    found: set[bytes] = set()
    for perm in itertools.permutations(range(1, d + 1)):
        b = recover_by_ordering(chi, perm)
        if b.min() < -tol:
            continue
        b = np.where(np.abs(b) <= tol, 0.0, b)  # cancellation residue is zero
        if (np.diag(b) <= 0).any():
            continue
        if not is_mlcm_by_reconstruction(b, tol):
            continue
        if np.abs(tdm(b) - chi).max() > 1e-7:
            continue
        found.add(np.round(b, 9).tobytes())
    return found


def random_dag_edges(d: int, density: float, rng: np.random.Generator) -> set[tuple[int, int]]:
    """Edges of a random DAG: one scalar draw per candidate pair, in a nested loop."""
    label = rng.permutation(d) + 1
    edges = set()
    for a in range(d):
        for b in range(a + 1, d):
            if rng.random() < density:
                edges.add((int(label[a]), int(label[b])))
    return edges


def kolmogorov_distance(sample: np.ndarray, cdf) -> float:
    """Sup distance between the empirical CDF of ``sample`` and ``cdf``."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    values = np.asarray([cdf(x) for x in xs])
    upper = np.abs(np.arange(1, n + 1) / n - values)
    lower = np.abs(np.arange(0, n) / n - values)
    return float(np.maximum(upper, lower).max())


def noise(rng: np.random.Generator, family: str, alpha: float, shape: tuple) -> np.ndarray:
    """Pareto or Frechet draws by inverse CDF, u clamped into (0, 1)."""
    u = np.clip(rng.random(shape), 1e-300, 1.0 - 1e-16)
    if family == "pareto":
        return u ** (-1.0 / alpha)
    return (-np.log(u)) ** (-1.0 / alpha)


def max_linear_sample(b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``X_i = max_j b_ji * Z_j`` per row, one dense product over all j per column."""
    x = np.empty_like(z)
    for i in range(b.shape[0]):
        x[:, i] = (z * b[:, i]).max(axis=1)
    return x


def topological_order(d: int, edges: set[tuple[int, int]]) -> list[int]:
    """Nodes by their number of ancestors: an edge k -> i gives An(k) a strict subset of An(i)."""
    an = closed_ancestors(d, edges)
    return sorted(range(1, d + 1), key=lambda i: len(an[i]))


def recursive_sample(model, z: np.ndarray) -> np.ndarray:
    """``X_i = max(max_{k in pa(i)} c_ki * X_k, c_ii * Z_i)`` per row, whole columns.

    Reads only the model's edges, weights and scales, and takes the nodes in
    its own topological order.
    """
    edges, weights = set(model.dag.edges), model.edge_weights
    x = np.empty_like(z)
    for i in topological_order(model.d, edges):
        column = model.noise_scales[i - 1] * z[:, i - 1]
        for k in sorted(k for k, j in edges if j == i):
            column = np.maximum(column, weights[(k, i)] * x[:, k - 1])
        x[:, i - 1] = column
    return x


def empirical_tdm(values: np.ndarray, u: float) -> np.ndarray:
    """The exceedance-ratio estimate from one (n, d) array of 0/1 hits."""
    quantiles = np.array([np.quantile(column, u) for column in values.T])
    hits = np.greater(values, quantiles[None, :], out=np.empty_like(values, dtype=np.float64))
    counts = hits.sum(axis=0)
    chi = 2.0 * (hits.T @ hits) / (counts[:, None] + counts[None, :])
    np.fill_diagonal(chi, 1.0)
    return chi


def scaled_block_maxima(
    b: np.ndarray, family: str, alpha: float, block_size: int, n_blocks: int, seed: int,
) -> np.ndarray:
    """Block maxima of dense per-draw samples, every draw of every block from ``seed``."""
    rng = np.random.default_rng(seed)
    x = max_linear_sample(b, noise(rng, family, alpha, (n_blocks * block_size, b.shape[0])))
    return x.reshape(n_blocks, block_size, -1).max(axis=1) * float(block_size) ** (-1.0 / alpha)


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """Sup distance between the empirical CDFs of ``a`` and ``b``."""
    grid = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(fa - fb).max())
