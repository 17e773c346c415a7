"""Recovering coefficient matrices from tail dependence information.

The standardized coefficient matrix bbar is never identifiable from the
tail dependence matrix chi alone (chi is symmetric, bbar is not), but it
becomes identifiable once the reachability relation, a causal ordering, or
(for max-weighted models) the initial nodes are known.  Every recovery, and
both enumerators on top of them, fill rows in an order compatible with that
information through one function, ``_settled_row``.  It computes

    bbar_ji = chi(j, i) - sum_{k placed} min(bbar_ki, bbar_kj)

and then applies four rules: (1) columns the information rules out are set
to zero; (2) an entry below ``-tol`` raises :class:`NotRealizableError`;
(3) entries within ``tol`` of zero snap to zero; (4) a diagonal entry that
is not positive raises :class:`NotRealizableError`.  The enumerators output
the standardized coefficient matrices of every model, or every max-weighted
model, compatible with a given chi.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    EnumerationCapError,
    NotRealizableError,
    PatternMismatchError,
    ValidationError,
)
from .graph import CausalOrdering, Dag, is_reachability_matrix
from .mlcm import _analysis, is_mlcm
from .taildep import (
    _independent_nodes,
    _positive_mask,
    clique_initial_filter,
    independence_pattern_check,
    maximum_chi_cliques,
    tdm_from_std_mlcm,
    validate_tdm,
)
from .tolerance import DEFAULT_TOL, max_rel_residual


def _settled_row(chi: np.ndarray, bbar: np.ndarray, placed: list[int], node: int,
                 forced: list[int] | np.ndarray, tol: float) -> np.ndarray:
    # Row `node` of bbar from the rows `placed` (0-based nodes), with the
    # columns `forced` (indices or a boolean mask) held at zero.  Entries
    # within tol of zero snap to exact zero: they are cancellation residue
    # of the recursion, and a stray 1e-16 would corrupt the support pattern
    # that downstream validity checks read off the matrix.
    row = chi[node].copy()
    if placed:
        prior = bbar[placed]
        row -= np.minimum(prior, prior[:, node, None]).sum(axis=0)
    row[forced] = 0.0
    worst = row.min()
    if worst < -tol:
        col = int(np.argmin(row)) + 1
        raise NotRealizableError(
            f"row recursion for node {node + 1} produced {float(worst)} at column {col}; "
            "the matrix is not realizable with this structure"
        )
    row[np.abs(row) <= tol] = 0.0
    if row[node] <= 0.0:
        raise NotRealizableError(
            f"row recursion for node {node + 1} left the diagonal entry {float(row[node])}; "
            "the matrix is not realizable with this structure"
        )
    return row


def _recover(chi: np.ndarray, order: list[int], support: np.ndarray, tol: float) -> np.ndarray:
    # Rows in `order` (0-based nodes); row j may be nonzero on support[j] only.
    bbar = np.zeros(chi.shape)
    for n, node in enumerate(order):
        bbar[node] = _settled_row(chi, bbar, order[:n], node, ~support[node], tol)
    return bbar


def recover_from_ordering(
    chi: np.ndarray,
    ordering: CausalOrdering | Sequence[int],
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Standardized coefficient matrix from chi and a causal ordering.

    Rows are filled in ordering position; entries at earlier-placed columns
    are zero.  When the ordering is a causal ordering of a DAG generating
    ``chi``, the output is that model's standardized coefficient matrix.
    Raises :class:`NotRealizableError` when the recursion turns negative
    beyond ``tol`` or leaves a diagonal entry that is not positive.
    """
    chi = validate_tdm(chi)
    if not isinstance(ordering, CausalOrdering):
        ordering = CausalOrdering(tuple(ordering))
    d = chi.shape[0]
    if len(ordering) != d:
        raise ValidationError(f"ordering has length {len(ordering)}, matrix is {d}x{d}")
    pos = np.asarray(ordering.positions)
    order = [v - 1 for v in ordering.node_order]
    return _recover(chi, order, pos[None, :] >= pos[:, None], tol)


def recover_from_reachability(
    chi: np.ndarray,
    reach: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Standardized coefficient matrix from chi and the reachability matrix.

    Exact inverse of the tail dependence computation given the true
    reachability: rows are filled in increasing ancestor count, supported on
    De(j) only.  Raises :class:`PatternMismatchError` when the zero patterns
    disagree and :class:`NotRealizableError` on negative recursion values or
    a diagonal entry that is not positive.
    """
    chi = validate_tdm(chi)
    reach = np.asarray(reach)
    if not is_reachability_matrix(reach):
        raise ValidationError("reachability input is not a reachability matrix of a DAG")
    if reach.shape != chi.shape:
        raise ValidationError(f"dimension mismatch: chi {chi.shape} vs reach {reach.shape}")
    if not independence_pattern_check(chi, reach):
        raise PatternMismatchError(
            "zero pattern of the tail dependence matrix does not match the "
            "common-ancestor pattern of the reachability matrix"
        )
    reach = reach.astype(bool)
    order = np.argsort(reach.sum(axis=0), kind="stable").tolist()
    return _recover(chi, order, reach, tol)


def ordering_from_initials(
    chi: np.ndarray,
    initials: Sequence[int],
) -> CausalOrdering:
    """Causal ordering implied by chi and a candidate initial node set.

    Nodes are layered by how many initial nodes they depend on, and sorted
    within a layer by their largest tail dependence on an initial node
    (descending, ties by node index).  For any max-weighted model whose DAG
    has initial nodes ``initials`` and tail dependence ``chi``, the result
    is a valid causal ordering of that DAG.
    """
    chi = validate_tdm(chi)
    positive = _positive_mask(chi)
    d = chi.shape[0]
    widx = [v - 1 for v in _independent_nodes(positive, initials, "initial nodes")]
    counts = positive[widx, :].sum(axis=0)
    if (counts == 0).any():
        node = int(np.flatnonzero(counts == 0)[0]) + 1
        raise ValidationError(
            f"node {node} has zero tail dependence on every candidate initial node; "
            "the set cannot be a maximum clique"
        )
    strongest = chi[widx, :].max(axis=0)
    ranked = sorted(range(1, d + 1), key=lambda j: (counts[j - 1], -strongest[j - 1], j))
    return CausalOrdering.from_node_order(ranked)


def recover_rmwm_from_initials(
    chi: np.ndarray,
    initials: Sequence[int],
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Standardized coefficient matrix of a max-weighted model from chi and V0.

    Composition of :func:`ordering_from_initials` and
    :func:`recover_from_ordering`; unique for max-weighted models.  Outside
    that class the result need not reproduce the generating matrix.
    """
    ordering = ordering_from_initials(chi, initials)
    return recover_from_ordering(chi, ordering, tol)


def initial_bijection(
    chi: np.ndarray,
    initials: Sequence[int],
    other_initials: Sequence[int],
) -> dict[int, int]:
    """The unique dependence-preserving bijection between two initial sets.

    Maps each node of ``initials`` to the single node of ``other_initials``
    it has positive tail dependence with.  Raises
    :class:`NotRealizableError` when a match is missing, ambiguous, or the
    map fails to be a bijection; the two sets then cannot be initial node
    sets of models sharing ``chi``.
    """
    chi = validate_tdm(chi)
    positive = _positive_mask(chi)
    v0 = sorted({int(v) for v in initials})
    v0t = sorted({int(v) for v in other_initials})
    if len(v0) != len(v0t):
        raise ValidationError(f"initial sets have different sizes: {len(v0)} vs {len(v0t)}")
    phi: dict[int, int] = {}
    for j in v0:
        matches = [i for i in v0t if positive[j - 1, i - 1]]
        if len(matches) != 1:
            raise NotRealizableError(
                f"initial node {j} has {len(matches)} positive matches in {v0t}; expected one"
            )
        phi[j] = matches[0]
    if len(set(phi.values())) != len(v0):
        raise NotRealizableError(f"matching {phi} is not a bijection")
    return phi


@dataclass(frozen=True, eq=False)
class IdentifiedModel:
    """One standardized coefficient matrix compatible with a given chi."""

    std_mlcm: np.ndarray
    min_ml_dag: Dag
    initial_nodes: tuple[int, ...]
    ordering_used: CausalOrdering
    max_weighted: bool


def _sorted_models(models: list[IdentifiedModel]) -> list[IdentifiedModel]:
    # A support fixes the initial nodes, and the accepted supports are
    # distinct, so this key never ties.
    return sorted(models, key=lambda m: (m.initial_nodes, (m.std_mlcm > 0).tobytes()))


def _leaves(chi: np.ndarray, bbar: np.ndarray, placed: list[int], layers: list[list[int]],
            level: int, remaining: list[int], tol: float) -> Iterator[None]:
    # Depth-first over the orders of `remaining` (0-based nodes of layer
    # `level`) and of the layers after it, settling each row on the way.
    # Yields at every leaf with `bbar` and `placed` filled in; a prefix whose
    # row recursion fails is abandoned.
    if not remaining:
        if level + 1 < len(layers):
            yield from _leaves(chi, bbar, placed, layers, level + 1, list(layers[level + 1]), tol)
        else:
            yield
        return
    for node in list(remaining):
        try:
            bbar[node] = _settled_row(chi, bbar, placed, node, placed, tol)
        except NotRealizableError:
            continue
        placed.append(node)
        remaining.remove(node)
        yield from _leaves(chi, bbar, placed, layers, level, remaining, tol)
        remaining.append(node)
        placed.pop()
        bbar[node] = 0.0


def enumerate_all(
    chi: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_d: int = 10,
) -> list[IdentifiedModel]:
    """All standardized coefficient matrices whose models have this chi.

    For every maximum chi-clique surviving the initial-set filter, the
    candidate causal orderings (clique first, remaining nodes grouped by how
    many clique members they depend on) are explored depth-first; a prefix
    is abandoned as soon as its row recursion turns negative.  Each leaf
    matrix must pass the full coefficient-matrix validity check and
    reproduce ``chi``.  An empty list means no recursive max-linear model
    has this tail dependence matrix.

    A leaf whose support pattern was already accepted is skipped: given chi
    and a causal ordering of its DAG, the row recursion returns that DAG's
    unique matrix, so a found model is fixed by its support.  Skipping on
    the support skips exactly the orderings that are causal for a found
    model's DAG.  (i) The recursion holds each row at zero on the columns
    placed before it, so a leaf's ordering is causal for the leaf's own
    support: a leaf that repeats a found support has an ordering causal for
    that model's DAG, with no rounding involved.  (ii) Conversely, an
    ordering causal for a found model's DAG re-derives that model's matrix,
    so its support repeats.

    The search is capped at ``max_d`` nodes (default 10) because its worst
    case is factorial; larger inputs raise :class:`EnumerationCapError`.
    """
    chi = validate_tdm(chi)
    d = chi.shape[0]
    if d > max_d:
        raise EnumerationCapError(
            f"enumeration over {d} nodes exceeds the cap of {max_d}; "
            "raise max_d explicitly to proceed"
        )
    positive = _positive_mask(chi)
    found: list[IdentifiedModel] = []
    seen: set[bytes] = set()

    for clique in maximum_chi_cliques(chi):
        if not clique_initial_filter(chi, clique, tol):
            continue
        # Clique members come first, pinned in ascending order as one-node
        # layers: their internal order never changes the recovered matrix.
        # Every other node depends on some member, or it would extend the
        # maximum clique.  `placed` and `layers` hold 0-based nodes.
        widx = [v - 1 for v in clique]
        counts = positive[widx, :].sum(axis=0)
        rest = [j for j in range(d) if j not in widx]
        levels = sorted({int(counts[j]) for j in rest})
        layers = [[w] for w in widx] + [[j for j in rest if counts[j] == c] for c in levels]
        bbar = np.zeros((d, d))
        placed: list[int] = []
        for _ in _leaves(chi, bbar, placed, layers, 0, list(layers[0]), tol):
            support = (bbar > 0).tobytes()
            if support in seen or not is_mlcm(bbar, tol):
                continue
            if max_rel_residual(tdm_from_std_mlcm(bbar), chi) > tol:
                continue
            seen.add(support)
            candidate = bbar.copy()
            analysis = _analysis(candidate)
            found.append(
                IdentifiedModel(
                    std_mlcm=candidate,
                    min_ml_dag=analysis.minimum_ml_dag(tol),
                    initial_nodes=tuple(clique),
                    ordering_used=CausalOrdering.from_node_order([v + 1 for v in placed]),
                    max_weighted=analysis.is_rmwm(tol).ok,
                )
            )

    return _sorted_models(found)


def _rmwm_model(chi: np.ndarray, initials: Sequence[int], tol: float) -> IdentifiedModel | None:
    # The max-weighted model with these initial nodes, or None when there is
    # none: the initial nodes fix a causal ordering, the row recursion on it
    # returns bbar, and bbar must be a max-weighted coefficient matrix whose
    # tail dependence matrix is chi.
    ordering = ordering_from_initials(chi, initials)
    try:
        bbar = recover_from_ordering(chi, ordering, tol)
    except NotRealizableError:
        return None
    analysis = _analysis(bbar)
    if analysis.fault is not None or not analysis.is_rmwm(tol):
        return None
    # Cannot raise: column i of bbar sums to chi(i, i) up to rounding.
    if max_rel_residual(tdm_from_std_mlcm(bbar), chi) > tol:
        return None
    return IdentifiedModel(
        std_mlcm=bbar,
        min_ml_dag=analysis.minimum_ml_dag(tol),
        initial_nodes=tuple(initials),
        ordering_used=ordering,
        max_weighted=True,
    )


def enumerate_all_rmwm(
    chi: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> list[IdentifiedModel]:
    """All standardized coefficient matrices of max-weighted models with this chi.

    One candidate per surviving maximum chi-clique: recover through the
    implied causal ordering, then accept iff the support pattern is a
    reachability matrix, the max-weighted path identities hold and the
    candidate reproduces ``chi``.  No permutation search is involved, but
    the clique count itself can grow exponentially with d: the random
    50-node polytree of seed 2 has 21 504 maximum cliques.
    """
    chi = validate_tdm(chi)
    found = [
        _rmwm_model(chi, clique, tol)
        for clique in maximum_chi_cliques(chi)
        if clique_initial_filter(chi, clique, tol)
    ]
    return _sorted_models([m for m in found if m is not None])


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Constraint check between two candidate max-weighted models.

    ``bijection`` maps the first initial set onto the second; ``moved``
    lists the nodes the bijection does not fix.  ``violations`` is empty iff
    every moved node maps to a terminal node of the first DAG and every
    transitive-reduction path to its image appears reversed in the second
    model's transitive reduction (derived from chi and the second initial
    set, exposed as ``alt_transitive_reduction``).  Each moved node and
    unreversed edge on one of its paths make one violation.
    """

    bijection: dict[int, int]
    moved: tuple[int, ...]
    violations: tuple[str, ...]
    alt_transitive_reduction: Dag | None

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def rmwm_equivalence_constraints(
    chi: np.ndarray,
    initials: Sequence[int],
    other_initials: Sequence[int],
    transitive_reduction: Dag,
    tol: float = DEFAULT_TOL,
) -> EquivalenceReport:
    """Check the structural constraints between chi-equivalent max-weighted models.

    Given the transitive reduction of the first model's DAG and two initial
    node sets, verifies that (a) every initial node moved by the bijection
    maps to a terminal node of the first DAG, and (b) every
    transitive-reduction path from a moved node to its image appears
    reversed in the transitive reduction of the second model: the one
    :func:`enumerate_all_rmwm` finds for ``other_initials``, if any.
    """
    chi = validate_tdm(chi)
    phi = initial_bijection(chi, initials, other_initials)
    moved = tuple(j for j in sorted(phi) if phi[j] != j)
    violations: list[str] = []

    terminals = transitive_reduction.terminal_nodes()
    for j in moved:
        if phi[j] not in terminals:
            violations.append(
                f"(a) moved initial node {j} maps to {phi[j]}, "
                "which is not a terminal node of the first DAG"
            )

    model = None
    with suppress(ValidationError):  # other_initials cannot be an initial node set
        model = _rmwm_model(chi, other_initials, tol)
    alt = model.min_ml_dag if model is not None else None
    if alt is None:
        violations.append("(b) no max-weighted model with the alternative initial nodes exists")
    else:
        # Edge a -> b lies on a path from j to phi(j) iff j reaches a and b
        # reaches phi(j), so every such path is reversed iff every such edge is.
        edges = sorted(transitive_reduction.edges)
        for j in moved:
            down = transitive_reduction.descendants_closed(j)
            up = transitive_reduction.ancestors_closed(phi[j])
            for a, b in edges:
                if a in down and b in up and (b, a) not in alt.edges:
                    violations.append(
                        f"(b) edge {a}->{b} on a path from moved node {j} to {phi[j]} is not "
                        "reversed in the alternative transitive reduction"
                    )

    return EquivalenceReport(
        bijection=phi,
        moved=moved,
        violations=tuple(violations),
        alt_transitive_reduction=alt,
    )
