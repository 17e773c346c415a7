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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import IllConditionedError, ValidationError
from .graph import Dag, reachability_matrix
from .mlcm import _validate_mlcm
from .tolerance import DEFAULT_TOL, ZERO_TOL

# Element cap on each temporary of the clique filter.
_FILTER_BLOCK = 1 << 16


def validate_tdm(chi: np.ndarray) -> np.ndarray:
    """Check finiteness, symmetry, unit diagonal, and [0, 1] range; return as float array.

    Each check allows a deviation of ``DEFAULT_TOL``.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.ndim != 2 or chi.shape[0] != chi.shape[1] or chi.size == 0:
        raise ValidationError(
            f"tail dependence matrix must be square and nonempty, got shape {chi.shape}"
        )
    if not np.isfinite(chi).all():
        raise ValidationError("tail dependence matrix has non-finite entries")
    asym = np.abs(chi - chi.T)
    if asym.max(initial=0.0) > DEFAULT_TOL:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise ValidationError(
            f"matrix is asymmetric at entry ({i + 1},{j + 1}): "
            f"{float(chi[i, j])} vs {float(chi[j, i])}"
        )
    diag_off = np.abs(np.diag(chi) - 1.0)
    if diag_off.max(initial=0.0) > DEFAULT_TOL:
        i = int(np.argmax(diag_off))
        raise ValidationError(
            f"diagonal entry ({i + 1},{i + 1}) is {float(chi[i, i])}, expected 1"
        )
    out_of_range = (chi < -DEFAULT_TOL) | (chi > 1.0 + DEFAULT_TOL)
    if out_of_range.any():
        i, j = map(int, np.argwhere(out_of_range)[0])
        raise ValidationError(f"entry ({i + 1},{j + 1}) = {float(chi[i, j])} outside [0, 1]")
    return chi


def tdm_from_std_mlcm(bbar: np.ndarray) -> np.ndarray:
    """Tail dependence matrix of a standardized coefficient matrix.

    Entries must be finite and column sums of ``bbar`` one within 1e-8;
    the output is symmetric with unit diagonal by construction.
    """
    bbar = _validate_mlcm(bbar)
    if (bbar < 0).any() or (np.diag(bbar) <= 0).any():
        raise ValidationError("matrix must be nonnegative with positive diagonal")
    colsums = bbar.sum(axis=0)
    if np.abs(colsums - 1.0).max() > 1e-8:
        j = int(np.argmax(np.abs(colsums - 1.0)))
        raise ValidationError(f"column {j + 1} sums to {float(colsums[j])}, expected 1")
    d = bbar.shape[0]
    chi = np.empty((d, d))
    for j in range(d):
        chi[: j + 1, j] = np.minimum(bbar[:, : j + 1], bbar[:, j : j + 1]).sum(axis=0)
        chi[j, : j + 1] = chi[: j + 1, j]
    return chi


def _positive_mask(chi: np.ndarray) -> np.ndarray:
    """The one zero rule for chi: positive (True) or zero (False).

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


def _common_ancestors(reach: np.ndarray) -> np.ndarray:
    # sgn(R^T R) as a boolean matrix: True where i and j share an ancestor.
    counts = np.asarray(reach, dtype=float)  # BLAS product; counts stay exact below 2**53
    return (counts.T @ counts) > 0


def independence_pattern_check(chi: np.ndarray, reach: np.ndarray) -> bool:
    """True iff the zero pattern of chi matches sgn(R^T R).

    The (i, j) entry of R^T R counts common ancestors, so this verifies
    that chi vanishes exactly on pairs with disjoint ancestor sets.  ``chi``
    must pass :func:`validate_tdm`.
    """
    chi = validate_tdm(chi)
    reach = np.asarray(reach)
    if chi.shape != reach.shape:
        raise ValidationError(f"dimension mismatch: chi {chi.shape} vs reach {reach.shape}")
    return bool((_positive_mask(chi) == _common_ancestors(reach)).all())


def chi_complement_graph(chi: np.ndarray) -> dict[int, frozenset[int]]:
    """Adjacency of the complement of the chi-graph.

    Nodes i != j are adjacent iff chi(i, j) is zero, i.e. iff the
    corresponding components are independent.
    """
    chi = validate_tdm(chi)
    positive = _positive_mask(chi)
    d = chi.shape[0]
    return {
        i: frozenset(j for j in range(1, d + 1) if j != i and not positive[i - 1, j - 1])
        for i in range(1, d + 1)
    }


def maximum_chi_cliques(chi: np.ndarray) -> list[tuple[int, ...]]:
    """All maximum cliques of the chi-complement graph.

    Every initial node set of a DAG generating ``chi`` appears among them.
    Cliques are returned sorted ascending, the list lexicographically.
    """
    adjacency = chi_complement_graph(chi)
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
    # Pivoted Bron-Kerbosch over all maximal cliques.
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


def _independent_nodes(positive: np.ndarray, nodes: Sequence[int], name: str) -> list[int]:
    # Sorted distinct nodes, checked in range and pairwise independent.
    d = positive.shape[0]
    w = sorted({int(v) for v in nodes})
    if not w or w[0] < 1 or w[-1] > d:
        raise ValidationError(f"{name} {nodes} outside node range 1..{d}")
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
    chi = validate_tdm(chi)
    w = _independent_nodes(_positive_mask(chi), clique, "clique")
    # The bound for every pair outside W is one sum over W's contiguous
    # last axis, so it adds in the same order as a sum over a 1-d vector
    # does; rows are taken in blocks of at most _FILTER_BLOCK elements.
    w = np.asarray(w) - 1
    rest = np.ones(chi.shape[0], dtype=bool)
    rest[w] = False
    to_w = chi[w][:, rest].T.copy()  # chi(k, i) at [i, k]
    among = chi[rest][:, rest]
    r = to_w.shape[0]
    rows = max(1, _FILTER_BLOCK // max(r * w.size, 1))
    cols = np.arange(r)
    for a0 in range(0, r, rows):
        bound = np.minimum(to_w[a0 : a0 + rows, None, :], to_w).sum(axis=-1)
        low = among[a0 : a0 + rows] < bound - tol
        if (low & (cols >= cols[a0 : a0 + rows, None])).any():
            return False
    return True


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
    chi = validate_tdm(chi)
    if chi.shape[0] != dag.d:
        raise ValidationError(f"matrix is {chi.shape[0]}x{chi.shape[0]}, DAG has {dag.d} nodes")
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
    chi = validate_tdm(chi)
    if chi.shape[0] != dag.d:
        raise ValidationError(f"matrix is {chi.shape[0]}x{chi.shape[0]}, DAG has {dag.d} nodes")
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


def _chi_close(a, b, tol: float):
    # chi entries live in [0, 1]: flooring the scale at one makes the
    # comparison absolute there, so sub-tolerance perturbations of any
    # entry, however small, never flip a verdict.  Works elementwise.
    return np.abs(a - b) <= tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def check_rmwm_tdm(dag: Dag, chi: np.ndarray, tol: float = DEFAULT_TOL) -> RmwmTdmCheck:
    """Is ``chi`` the tail dependence matrix of a max-weighted model on ``dag``?

    Verifies the four characterizing conditions:

    (a) the zero pattern of chi matches sgn(R^T R) of the DAG;
    (b) the recursively defined diagonal entries
        ``bbar_ii = 1 - sum_{k in an(i)} bbar_kk * chi(k, i)`` stay positive;
    (c) ``chi(j, i) = chi(j, k) * chi(k, i)`` for every node i, ancestor j,
        and intermediate parent k of i;
    (d) for incomparable pairs with common ancestors,
        ``chi(i, j) = sum_k bbar_kk * min(chi(k, i), chi(k, j))``.

    Zero classification in (a) and the equality comparisons in (c), (d)
    treat ``tol`` absolutely on the [0, 1] scale, so perturbations below
    the tolerance never flip the verdict.  ``failures`` lists (c) in
    ascending (i, j, k) and (d) in ascending (i, j) order.  ``chi`` itself
    must pass :func:`validate_tdm`, whose checks allow ``DEFAULT_TOL``
    whatever ``tol``.

    All ancestry comes from the DAG's cached reachability matrix; (b)-(d)
    and the final ``std_mlcm`` are numpy passes one node at a time, with
    O(d^2) temporaries.  Sums run in numpy's order.
    """
    chi = validate_tdm(chi)
    if chi.shape[0] != dag.d:
        raise ValidationError(f"matrix is {chi.shape[0]}x{chi.shape[0]}, DAG has {dag.d} nodes")
    d = dag.d
    failures: list[str] = []

    reach = reachability_matrix(dag).astype(bool)
    strict = reach & ~np.eye(d, dtype=bool)
    common = _common_ancestors(reach)
    positive = chi > tol
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
    bad = [i + 1 for i in range(d) if diag[i] <= 0.0]
    if bad:
        failures.append(f"(b) nonpositive diagonal at nodes {bad}")

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

    nodes = np.arange(d)
    for i in range(1, d + 1):
        an_i = reach[:, i - 1]
        js = np.flatnonzero((nodes >= i) & common[i - 1] & ~an_i & ~reach[i - 1])
        if not js.size:
            continue
        shared = an_i[:, None] & reach[:, js]
        terms = diag[:, None] * np.minimum(chi[:, i - 1, None], chi[:, js])
        rhs = np.where(shared, terms, 0.0).sum(axis=0)
        lhs = chi[i - 1, js]
        for n in np.flatnonzero(~_chi_close(lhs, rhs, tol)):
            failures.append(
                f"(d) pair ({i},{js[n] + 1}): chi={float(lhs[n])} vs "
                f"combination={float(rhs[n])}"
            )

    if failures:
        return RmwmTdmCheck(False, diag, None, tuple(failures))
    # bbar_ki = bbar_kk * chi(k, i) for every strict ancestor k of i.
    bbar = np.where(strict, diag[:, None] * chi, 0.0)
    np.fill_diagonal(bbar, diag)
    return RmwmTdmCheck(True, diag, bbar, ())
