"""Tail dependence matrices and their graph structure.

The tail dependence coefficient between two components of a recursive
max-linear model is the sum of pairwise minima of the corresponding columns
of the standardized coefficient matrix,

    chi(i, j) = sum_{k in An(i) & An(j)} min(bbar_ki, bbar_kj),

so chi(i, j) vanishes exactly when i and j share no ancestor.  That zero
pattern drives everything here: the complement of the chi-graph, whose
maximum cliques are the candidate initial node sets, a necessary filter for
those candidates, coefficient representations of bbar entries purely in
terms of chi, and the full characterization of which matrices are tail
dependence matrices of a max-weighted model on a given DAG.

One kernel, ``_min_sum``, takes that min-sum over all pairs; the chi
formula, the initial-set filter and condition (d) of the characterization
all call it.

One search, ``_chi_cliques``, lists the maximum cliques: a pivoted
Bron-Kerbosch on int bitsets, bounded by the clique number (Tomita, Tanaka &
Takahashi, TCS 2006).  The enumerators run it with the initial-set filter's
cut; its docstring argues that no clique the filter passes is lost.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .graph import Dag, _bool_product, _node, _nodes, _reach
from .mlcm import _finite_square, _positive_diagonal
from .tolerance import (
    DEFAULT_TOL,
    _COLSUM_TOL,
    _check_tol,
    _chi_close,
    _chi_positive,
    _nonpositive,
    _outside,
    _positive_mask,
    _shown,
    _worst_off,
)

# Element cap on each temporary of the min-sum kernel.
_MIN_SUM_BLOCK = 1 << 16


def validate_tdm(chi: np.ndarray) -> np.ndarray:
    """Check finiteness, symmetry, unit diagonal, and [0, 1] range; return as float array.

    Each check allows a deviation of ``DEFAULT_TOL``.
    """
    chi = _finite_square(chi, "tail dependence matrix")
    if (at := _worst_off(chi, chi.T, DEFAULT_TOL)) is not None:
        i, j = at
        raise ValidationError(
            f"matrix is asymmetric at entry ({i + 1},{j + 1}): "
            f"{float(chi[i, j])} vs {float(chi[j, i])}"
        )
    if (at := _worst_off(np.diag(chi), 1.0, DEFAULT_TOL)) is not None:
        (i,) = at
        raise ValidationError(
            f"diagonal entry ({i + 1},{i + 1}) is {float(chi[i, i])}, expected 1"
        )
    out_of_range = _outside(chi, 0.0, DEFAULT_TOL, 1.0)
    if out_of_range.any():
        i, j = map(int, np.argwhere(out_of_range)[0])
        raise ValidationError(f"entry ({i + 1},{j + 1}) = {float(chi[i, j])} outside [0, 1]")
    return chi


def _tdm_on(chi: np.ndarray, dag: Dag) -> np.ndarray:
    chi = validate_tdm(chi)
    if chi.shape[0] != dag.d:
        raise ValidationError(f"matrix is {chi.shape[0]}x{chi.shape[0]}, DAG has {dag.d} nodes")
    return chi


def tdm_from_std_mlcm(bbar: np.ndarray) -> np.ndarray:
    """Tail dependence matrix of a standardized coefficient matrix.

    Entries must be finite and column sums of ``bbar`` one within 1e-8;
    the output is symmetric with unit diagonal by construction.
    """
    bbar = _positive_diagonal(bbar)
    with np.errstate(over="ignore"):  # a sum beyond float64 is inf, reported below
        colsums = bbar.sum(axis=0)
    if (at := _worst_off(colsums, 1.0, _COLSUM_TOL)) is not None:
        (j,) = at
        raise ValidationError(f"column {j + 1} sums to {float(colsums[j])}, expected 1")
    return _min_sum(bbar)


def _min_sum(a: np.ndarray) -> np.ndarray:
    # m[i, j] = sum_k min(a[k, i], a[k, j]), summed over k in row order, so
    # m is symmetric to the bit whatever the block.  Output rows are taken
    # in blocks of at most _MIN_SUM_BLOCK temporary elements.  The input is
    # made C-contiguous first: the temporary follows its layout, and numpy
    # sums along a contiguous k axis pairwise, which changes the last bits.
    a = np.ascontiguousarray(a)
    k, n = a.shape
    m = np.empty((n, n))
    rows = max(1, _MIN_SUM_BLOCK // max(k * n, 1))
    for r0 in range(0, n, rows):
        m[r0 : r0 + rows] = np.minimum(a[:, r0 : r0 + rows, None], a[:, None, :]).sum(axis=0)
    return m


def independence_pattern_check(chi: np.ndarray, reach: np.ndarray) -> bool:
    """True iff the zero pattern of chi matches sgn(R^T R).

    The (i, j) entry of R^T R counts common ancestors, so this verifies
    that chi vanishes exactly on pairs with disjoint ancestor sets.  ``chi``
    must pass :func:`validate_tdm` and ``reach`` :func:`is_reachability_matrix`.
    """
    chi = validate_tdm(chi)
    return _pattern_matches(chi, _reach(reach))


def _pattern_matches(chi: np.ndarray, reach: np.ndarray) -> bool:
    # independence_pattern_check on a chi that passed validate_tdm and the
    # boolean reach that _reach returned.
    if chi.shape != reach.shape:
        raise ValidationError(f"dimension mismatch: chi {chi.shape} vs reach {reach.shape}")
    return bool((_positive_mask(chi) == _bool_product(reach.T, reach)).all())


def chi_complement_graph(chi: np.ndarray) -> dict[int, frozenset[int]]:
    """Adjacency of the complement of the chi-graph.

    Nodes i != j are adjacent iff chi(i, j) is zero, i.e. iff the
    corresponding components are independent.
    """
    zero = ~_positive_mask(validate_tdm(chi))  # False on the diagonal, where chi is 1
    return {i: _nodes(row) for i, row in enumerate(zero, start=1)}


def maximum_chi_cliques(chi: np.ndarray) -> list[tuple[int, ...]]:
    """All maximum cliques of the chi-complement graph.

    Every initial node set of a DAG generating ``chi`` appears among them.
    Cliques are returned sorted ascending, the list lexicographically.  The
    search is a pivoted Bron-Kerbosch on bitsets (Tomita, Tanaka &
    Takahashi, TCS 2006) that visits only branches that can still reach the
    clique number.
    """
    chi = validate_tdm(chi)
    return _chi_cliques(chi, _positive_mask(chi))


def _bits(p: int) -> Iterator[int]:
    # The set bits of p, lowest first, each as an int of that bit alone.
    while p:
        low = p & -p
        yield low
        p ^= low


def _chi_cliques(
    chi: np.ndarray, positive: np.ndarray, cut: np.ndarray | None = None
) -> list[tuple[int, ...]]:
    """Maximum cliques of the chi-complement graph, sorted as ``maximum_chi_cliques``.

    ``chi`` has passed :func:`validate_tdm` and ``positive`` is its
    ``_positive_mask``.  Node v is bit v - 1 of an int; a branch has the
    clique R and the candidates P, the nodes adjacent to all of R.  Both
    passes branch only on the members of P not adjacent to the pivot, the
    member of P with most neighbours in P (Tomita, Tanaka & Takahashi, TCS
    363, 2006).  The first finds the clique number omega, cutting a branch
    when |R| plus the colour classes of a greedy colouring of P cannot beat
    the best so far (Tomita & Seki, DMTCS 2003).  The second lists the
    cliques of size omega and cuts a branch when |R| + |P| < omega; such a
    clique is maximal, so no excluded set is kept.

    ``cut = tolerance._filter_cut(chi, tol)`` also cuts a branch whose every
    clique ``clique_initial_filter(chi, W, tol)`` rejects.  That filter
    rejects W when a pair i <= j outside W has chi(i, j) < S_W(i, j) - tol,
    S_W(i, j) = sum_{k in W} min(chi(k, i), chi(k, j)), and every W of the
    branch lies in R | P and holds R.  From S_R to S_W at most d terms are
    added, each at least -m, m = max(0, -min chi) <= ``DEFAULT_TOL``.  The
    float sums (at most d terms of size at most 1 + ``DEFAULT_TOL``), chi +
    tol + delta and the filter's subtraction err by less than 11 d^2 u in
    all while d u < 0.01 (u = 2^-53; Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3-4).  So with delta = d m + 16 d^2 u, a
    computed S_R(i, j) above chi(i, j) + tol + delta on a pair outside R | P
    fails the filter for every W of the branch.  The test runs once a node
    lies outside R | P.  The filter still judges every clique listed.
    """
    d = chi.shape[0]
    rows = np.packbits(~positive, axis=1, bitorder="little")
    adj = {1 << v: int.from_bytes(row.tobytes(), "little") for v, row in enumerate(rows)}
    everyone = (1 << d) - 1

    # Depth first, one explicit stack per pass, the design of every search
    # (identify._leaves, graph._extensions): no recursion limit, and no
    # nested function that would hold a reference cycle.
    omega = 0
    stack = [(0, everyone)]
    while stack:
        size, p = stack.pop()
        if size + _colours(adj, p) <= omega:
            continue
        if not p:
            omega = size
            continue
        for v in _bits(p & ~adj[_pivot(adj, p)]):
            stack.append((size + 1, p & adj[v]))
            p ^= v

    # A branch is (R, |R|, P, the last node added, the parent's excess),
    # where excess is S_R - cut: -inf below the diagonal.
    found = []
    branches = [(0, 0, everyone, None, None if cut is None else -cut)]
    while branches:
        r, size, p, v, excess = branches.pop()
        if size + p.bit_count() < omega:
            continue
        if excess is not None:
            if v is not None:
                row = chi[v.bit_length() - 1]
                excess = excess + np.minimum(row[:, None], row)
            if outside := everyone & ~(r | p):
                i = np.array([b.bit_length() - 1 for b in _bits(outside)])
                if excess[i[:, None], i].max() > 0.0:
                    continue
        if not p:
            found.append(r)
            continue
        for v in _bits(p & ~adj[_pivot(adj, p)]):
            branches.append((r | v, size + 1, p & adj[v], v, excess))
            p ^= v
    return sorted(tuple(v.bit_length() for v in _bits(r)) for r in found)


def _pivot(adj: dict[int, int], p: int) -> int:
    # The member of p with most neighbours in p.
    return max(_bits(p), key=lambda u: (p & adj[u]).bit_count())


def _colours(adj: dict[int, int], p: int) -> int:
    # Classes of a greedy colouring of p, each a set of pairwise non-adjacent
    # nodes: no clique in p has more members.
    n = 0
    while p:
        n += 1
        free = p
        while free:
            v = free & -free
            free &= ~(adj[v] | v)
            p ^= v
    return n


def _independent_nodes(positive: np.ndarray, nodes: Sequence[int], name: str) -> list[int]:
    # Sorted distinct nodes, checked in range and pairwise independent.
    try:
        nodes = list(nodes)
    except TypeError:
        raise ValidationError(
            f"{name} must be a collection of nodes, got {_shown(nodes)!r}"
        ) from None
    w = sorted({_node(v, positive.shape[0]) for v in nodes})
    if not w:
        raise ValidationError(f"no {name} given")
    for a in w:
        for b in w:
            if a < b and positive[a - 1, b - 1]:
                raise ValidationError(f"nodes {a} and {b} have positive tail dependence")
    return w


def clique_initial_filter(
    chi: np.ndarray,
    clique: Sequence[int],
    tol: float = DEFAULT_TOL,
) -> bool:
    """Necessary condition for a maximum chi-clique to be an initial node set.

    Were the clique W the initial nodes of a generating DAG, every pair
    outside W would satisfy ``chi(i, j) >= sum_{k in W} min(chi(k, i),
    chi(k, j))``.  A False return certifies that no compatible model has
    initial nodes W; True keeps W as a candidate.
    """
    _check_tol(tol)
    chi = validate_tdm(chi)
    w = np.asarray(_independent_nodes(_positive_mask(chi), clique, "clique")) - 1
    rest = np.ones(chi.shape[0], dtype=bool)
    rest[w] = False
    low = _outside(chi[rest][:, rest], _min_sum(chi[w][:, rest]), tol)
    cols = np.arange(len(low))
    return not (low & (cols >= cols[:, None])).any()  # pairs i <= j


def lambda_coefficients(dag: Dag, j: int) -> dict[int, float]:
    """Coefficients lambda_jk over the ancestors of ``j``.

    Defined by the recursion ``lambda_jk = 1 - sum_{l in de(k) & an(j)}
    lambda_jl``; transitive-reduction parents of ``j`` get coefficient one.
    Values may be zero or negative by design.
    """
    return _down_set_coefficients(dag, dag.ancestors(j))


def _down_set_coefficients(dag: Dag, members: frozenset[int]) -> dict[int, float]:
    # coeff_k = 1 - sum_{l in de(k) & members} coeff_l, sinks first.
    coeffs: dict[int, float] = {}
    for k in reversed(dag.topological_order()):
        if k in members:
            coeffs[k] = 1.0 - sum(coeffs[l] for l in dag.descendants(k) & members)
    return coeffs


def lambda_representation(dag: Dag, chi: np.ndarray, j: int, i: int) -> float:
    """Coefficient ``bbar_ji`` expressed purely through tail dependencies.

    For a max-weighted model consistent with ``chi``,

        bbar_ji = chi(j, i) - sum_{k in an(j)} lambda_jk * chi(k, i).

    Requires ``j`` in An(i); with j == i this yields the diagonal entry.
    """
    chi = _tdm_on(chi, dag)
    if j != i and j not in dag.ancestors(i):
        raise ValidationError(f"node {j} is not in An({i})")
    coeffs = lambda_coefficients(dag, j)
    return float(chi[j - 1, i - 1] - sum(c * chi[k - 1, i - 1] for k, c in coeffs.items()))


def lowest_common_ancestors(dag: Dag, i: int, j: int) -> frozenset[int]:
    """Common ancestors of i and j without a path to another common ancestor."""
    common = dag.ancestors_closed(i) & dag.ancestors_closed(j)
    return frozenset(k for k in common if not (dag.descendants(k) & common))


def mu_coefficients(dag: Dag, i: int, j: int) -> dict[int, float]:
    """Coefficients mu_ij,k over the common ancestors of ``i`` and ``j``.

    Recursion ``mu_ij,k = 1 - sum_{l in de(k) & An(i) & An(j)} mu_ij,l``;
    lowest common ancestors get coefficient one.
    """
    return _down_set_coefficients(dag, dag.ancestors_closed(i) & dag.ancestors_closed(j))


class MuRepresentation(NamedTuple):
    """Tail dependence of a pair as a combination of minima with ancestors."""

    value: float
    coefficients: dict[int, float]
    lca: frozenset[int]


def mu_representation(dag: Dag, chi: np.ndarray, i: int, j: int) -> MuRepresentation:
    """Evaluate ``chi(i, j)`` as ``sum_k mu_ij,k * min(chi(k, i), chi(k, j))``.

    For a max-weighted model consistent with ``chi`` the value reproduces
    the input entry; the coefficients and the lowest common ancestors are
    returned alongside it.
    """
    chi = _tdm_on(chi, dag)
    dag._check_node(i)
    dag._check_node(j)
    coeffs = mu_coefficients(dag, i, j)
    value = sum(
        c * min(chi[k - 1, i - 1], chi[k - 1, j - 1]) for k, c in coeffs.items()
    )
    return MuRepresentation(float(value), coeffs, lowest_common_ancestors(dag, i, j))


@dataclass(frozen=True)
class RmwmTdmCheck:
    """Outcome of the max-weighted tail dependence characterization.

    ``diag`` holds the recursively computed diagonal entries bbar_ii.  On
    success ``std_mlcm`` is the full standardized coefficient matrix implied
    by the input; ``failures`` lists every violated condition.
    """

    ok: bool
    diag: np.ndarray
    std_mlcm: np.ndarray | None
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_rmwm_tdm(dag: Dag, chi: np.ndarray, tol: float = DEFAULT_TOL) -> RmwmTdmCheck:
    """Is ``chi`` the tail dependence matrix of a max-weighted model on ``dag``?

    Verifies the four characterizing conditions:

    (a) the zero pattern of chi matches sgn(R^T R) of the DAG;
    (b) the recursively defined diagonal entries
        ``bbar_ii = 1 - sum_{k in an(i)} bbar_kk * chi(k, i)`` stay positive;
    (c) ``chi(j, i) = chi(j, k) * chi(k, i)`` for every node i, ancestor j,
        and intermediate parent k of i;
    (d) for incomparable pairs i < j with common ancestors,
        ``chi(i, j) = sum_k min(bbar_ki, bbar_kj)`` on the implied bbar,
        ``bbar_ki = bbar_kk * chi(k, i)`` for every ancestor k of i.

    Zero classification in (a) and the equality comparisons in (c), (d)
    treat ``tol`` absolutely on the [0, 1] scale, so perturbations below
    the tolerance never flip the verdict.  Each condition has its rule in
    :mod:`maxlindag.tolerance`: (a) ``_chi_positive``, an entry above ``tol``
    is positive (not the rule of ``_positive_mask``); (b) ``_nonpositive``,
    by sign alone; (c) and (d) ``_chi_close``.
    ``failures`` lists (c) in ascending (i, j, k) and (d) in ascending
    (i, j) order.  ``chi`` itself must pass :func:`validate_tdm`, whose
    checks allow ``DEFAULT_TOL`` whatever ``tol``.

    All ancestry comes from the DAG's cached reachability matrix.  (b) and
    (c) are numpy passes one node at a time, and (d) is one min-sum pass
    over the columns of the implied bbar that occur in an incomparable pair
    with common ancestors; that bbar is ``std_mlcm`` on success.
    """
    _check_tol(tol)
    chi = _tdm_on(chi, dag)
    d = dag.d
    failures: list[str] = []

    reach = dag._reachability()
    strict = reach & ~np.eye(d, dtype=bool)
    common = _bool_product(reach.T, reach)  # True where i and j share an ancestor
    positive = _chi_positive(chi, tol)
    np.fill_diagonal(positive, True)
    mismatch = positive != common
    if mismatch.any():
        a, b = map(int, np.argwhere(mismatch)[0])
        failures.append(
            f"(a) zero pattern: entry ({a + 1},{b + 1}) disagrees with common-ancestor pattern"
        )

    # Diagonal entries by ancestor count, so every ancestor's is settled.
    diag = np.zeros(d)
    for i in np.argsort(reach.sum(axis=0), kind="stable"):
        an = strict[:, i]
        diag[i] = 1.0 - (diag[an] * chi[an, i]).sum()
    bad = (np.flatnonzero(_nonpositive(diag)) + 1).tolist()
    if bad:
        failures.append(f"(b) nonpositive diagonal at nodes {bad}")
    # The implied bbar: bbar_ki = bbar_kk * chi(k, i) for every strict ancestor k of i.
    bbar = np.where(strict, diag[:, None] * chi, 0.0)
    np.fill_diagonal(bbar, diag)

    for i in range(1, d + 1):
        parents = sorted(dag.parents(i))
        if not parents:
            continue
        pa = np.asarray(parents) - 1
        lhs = chi[:, i - 1, None]
        rhs = chi[:, pa] * chi[pa, i - 1]
        violated = strict[:, pa] & ~_chi_close(lhs, rhs, tol)
        for j, p in np.argwhere(violated):
            failures.append(
                f"(c) chain ({j + 1},{parents[p]},{i}): "
                f"chi={float(lhs[j, 0])} vs product={float(rhs[j, p])}"
            )

    # The min-sum runs over the columns of the (d) pairs only; each entry
    # still sums over every row in row order, so it equals the full pass
    # to the bit.
    pairs = np.triu(common & ~reach & ~reach.T, 1)
    cols = np.flatnonzero(pairs.any(axis=0) | pairs.any(axis=1))
    sub = np.ix_(cols, cols)
    combination = _min_sum(bbar[:, cols])
    for a, b in np.argwhere(pairs[sub] & ~_chi_close(chi[sub], combination, tol)):
        i, j = cols[a], cols[b]
        failures.append(
            f"(d) pair ({i + 1},{j + 1}): chi={float(chi[i, j])} vs "
            f"combination={float(combination[a, b])}"
        )

    return RmwmTdmCheck(not failures, diag, None if failures else bbar, tuple(failures))
