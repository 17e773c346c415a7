"""Recovering coefficient matrices from tail dependence information.

The standardized coefficient matrix bbar is never identifiable from the
tail dependence matrix chi alone (chi is symmetric, bbar is not), but it
becomes identifiable once the reachability relation, a causal ordering, or
(for max-weighted models) the initial nodes are known.  Every recovery, and
both enumerators on top of them, fill rows in an order compatible with that
information through one function, ``_settled_row``.  It computes

    bbar_ji = chi(j, i) - sum_{k placed} min(bbar_ki, bbar_kj)

and then applies four rules: (1) columns the information rules out are set
to zero; (2) an entry below ``-tol`` raises :class:`NotRealizableError`
(``tolerance._outside``); (3) entries within ``tol`` of zero snap to zero
(``tolerance._snap``); (4) a diagonal entry that is not positive raises
:class:`NotRealizableError` (``tolerance._nonpositive``).  The sum runs
over the placed rows in node order for every caller, and a ``tol`` outside
(0, 1) raises :class:`ValidationError` everywhere.  Every recovery then
gates its output in ``_recover``: a support that is not a reachability
matrix raises :class:`NotRealizableError`, since no model has one.  A public
recovery validates chi once and passes it to private cores.  The
enumerators output every model, or every max-weighted model, compatible
with a given chi, and both accept a gated candidate through one function,
``_identified``, with no second gate.
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
from .graph import CausalOrdering, Dag, _dag_on, _ordering, _reach, is_reachability_matrix
from .graph import transitive_reduction as _transitive_reduction
from .mlcm import _gated, is_mlcm
from .taildep import (
    _chi_cliques,
    _independent_nodes,
    _min_sum,
    _pattern_matches,
    _tdm_on,
    clique_initial_filter,
    validate_tdm,
)
from .tolerance import (
    DEFAULT_TOL,
    _check_tol,
    _count,
    _filter_cut,
    _nonpositive,
    _outside,
    _positive_mask,
    _snap,
    _within,
    rel_residuals,
)


def _settled_row(chi: np.ndarray, bbar: np.ndarray, node: int, forced: np.ndarray,
                 tol: float) -> np.ndarray:
    # Row `node` (0-based) of bbar, with the columns of the boolean mask
    # `forced` held at zero.  The sum runs over all rows in node order;
    # unsettled rows are zero and add an exact 0.0.  Entries within tol of
    # zero snap to exact zero: they are cancellation residue of the
    # recursion, and a stray 1e-16 would corrupt the support pattern that
    # downstream validity checks read off the matrix.
    row = chi[node] - np.minimum(bbar, bbar[:, node, None]).sum(axis=0)
    row[forced] = 0.0
    worst = row.min()
    if _outside(worst, 0.0, tol):
        col = int(np.argmin(row)) + 1
        raise NotRealizableError(
            f"row recursion for node {node + 1} produced {float(worst)} at column {col}; "
            "the matrix is not realizable with this structure"
        )
    _snap(row, tol)
    if _nonpositive(row[node]):
        raise NotRealizableError(
            f"row recursion for node {node + 1} left the diagonal entry {float(row[node])}; "
            "the matrix is not realizable with this structure"
        )
    return row


def _recover(chi: np.ndarray, order: list[int], support: np.ndarray, tol: float) -> np.ndarray:
    # Rows in `order` (0-based nodes); row j may be nonzero on support[j] only.
    # The output support must be closed, but may be smaller than `support`.
    bbar = np.zeros(chi.shape)
    for node in order:
        bbar[node] = _settled_row(chi, bbar, node, ~support[node], tol)
    if not is_reachability_matrix(bbar > 0):
        raise NotRealizableError("the recovered support is not a reachability matrix of a DAG")
    return bbar


def recover_from_ordering(
    chi: np.ndarray,
    ordering: CausalOrdering | Sequence[int],
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Standardized coefficient matrix from chi and a causal ordering.

    A plain sequence is read as the positions sigma(1..d); the CLI's
    ``--ordering`` lists the nodes earliest-first instead.  Rows are filled
    in ordering position; entries at earlier-placed columns are zero.  When
    the ordering is a causal ordering of a DAG generating ``chi``, the
    output is that model's standardized coefficient matrix.
    Raises :class:`NotRealizableError` when the recursion turns negative
    beyond ``tol``, leaves a diagonal entry that is not positive, or returns
    a matrix whose support is not a reachability matrix.
    """
    tol = _check_tol(tol)
    chi = validate_tdm(chi)
    d = chi.shape[0]
    return _recover_ordered(chi, _ordering(ordering, d, f"matrix is {d}x{d}"), tol)


def _recover_ordered(chi: np.ndarray, ordering: CausalOrdering, tol: float) -> np.ndarray:
    # recover_from_ordering on a chi that passed validate_tdm.
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
    disagree and :class:`NotRealizableError` on negative recursion values, a
    diagonal entry that is not positive, or an output support that is not a
    reachability matrix; that support may be smaller than ``reach``.
    """
    tol = _check_tol(tol)
    chi = validate_tdm(chi)
    reach = _reach(reach)
    if not _pattern_matches(chi, reach):
        raise PatternMismatchError(
            "zero pattern of the tail dependence matrix does not match the "
            "common-ancestor pattern of the reachability matrix"
        )
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
    return _initial_ordering(chi, _positive_mask(chi), initials)


def _initial_ordering(chi: np.ndarray, positive: np.ndarray,
                      initials: Sequence[int]) -> CausalOrdering:
    # ordering_from_initials on a validated chi and its _positive_mask.
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
    that class the result need not reproduce the generating matrix.  Raises
    :class:`NotRealizableError` as :func:`recover_from_ordering` does,
    including when the recovered support is not a reachability matrix.
    """
    tol = _check_tol(tol)
    chi = validate_tdm(chi)
    return _recover_ordered(chi, _initial_ordering(chi, _positive_mask(chi), initials), tol)


def initial_bijection(
    chi: np.ndarray,
    initials: Sequence[int],
    other_initials: Sequence[int],
) -> dict[int, int]:
    """The unique dependence-preserving bijection between two initial sets.

    Maps each node of ``initials`` to the single node of ``other_initials``
    it has positive tail dependence with.  Each set must be nonempty, in
    range and pairwise independent, or :class:`ValidationError` is raised.
    Raises :class:`NotRealizableError` when a match is missing, ambiguous,
    or the map fails to be a bijection; the two sets then cannot be initial
    node sets of models sharing ``chi``.
    """
    return _bijection(_positive_mask(validate_tdm(chi)), initials, other_initials)


def _bijection(positive: np.ndarray, initials: Sequence[int],
               other_initials: Sequence[int]) -> dict[int, int]:
    # initial_bijection on the _positive_mask of a validated chi.
    v0 = _independent_nodes(positive, initials, "initial nodes")
    v0t = _independent_nodes(positive, other_initials, "initial nodes")
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
    """One standardized coefficient matrix compatible with a given chi.

    ``std_mlcm`` reproduces chi within a relative ``tol``; ``min_ml_dag`` is
    its minimum max-linear DAG at ``tol``.  ``initial_nodes`` is the maximum
    chi-clique it was found from, ascending; in :func:`enumerate_all` these
    are exactly the parentless nodes of ``min_ml_dag``.  ``ordering_used``
    is the search's placement order (:func:`enumerate_all`, whose docstring
    says which one) or :func:`ordering_from_initials`
    (:func:`enumerate_all_rmwm`), and ``recover_from_ordering(chi,
    ordering_used, tol)`` returns ``std_mlcm`` to the bit.
    ``max_weighted`` says whether every path is max-weighted at ``tol``.
    """

    std_mlcm: np.ndarray
    min_ml_dag: Dag
    initial_nodes: tuple[int, ...]
    ordering_used: CausalOrdering
    max_weighted: bool


def _sorted_models(models: list[IdentifiedModel]) -> list[IdentifiedModel]:
    # The accepted supports are distinct (the enumerate_all docstring says
    # why; enumerate_all_rmwm accepts one per clique): the key never ties.
    return sorted(models, key=lambda m: (m.initial_nodes, (m.std_mlcm > 0).tobytes()))


def _identified(chi: np.ndarray, bbar: np.ndarray, initials: Sequence[int],
                ordering: CausalOrdering, tol: float) -> IdentifiedModel | None:
    # The model of a candidate bbar that passed the support gate (the leaf
    # is_mlcm, or _recover), or None when its tail dependence matrix misses
    # chi by more than a relative tol.  No second gate runs.
    if not _within(rel_residuals(_min_sum(bbar), chi), tol).all():
        return None
    edges, rmwm = _gated(bbar).structure(tol)
    return IdentifiedModel(bbar, _dag_on(edges), tuple(initials), ordering, rmwm.ok)


def _initial_sets(chi: np.ndarray, positive: np.ndarray, tol: float) -> list[tuple[int, ...]]:
    # The maximum chi-cliques that pass the initial-set filter, in sorted
    # order: the candidates of both enumerators.
    cliques = _chi_cliques(chi, positive, _filter_cut(chi, tol))
    return [clique for clique in cliques if clique_initial_filter(chi, clique, tol)]


def _leaves(chi: np.ndarray, rank: list[int], tol: float) -> Iterator[tuple[np.ndarray, list]]:
    # Depth first on one explicit stack that owns every (bbar, placed, mask)
    # state, as _chi_cliques: a yielded leaf's matrix and order (0-based) are
    # its own.  Expanding a state settles the rows of its lowest-rank nodes
    # and pushes those that succeed in reverse, so the smallest pops first.
    # A popped state already in the memo is skipped.
    d = len(rank)
    memo: set[bytes] = set()
    stack = [(np.zeros((d, d)), [], np.zeros(d, dtype=bool))]
    while stack:
        bbar, placed, mask = stack.pop()
        key = bbar.tobytes()
        if key in memo:
            continue
        memo.add(key)
        if len(placed) == d:
            yield bbar, placed
            continue
        unplaced = [v for v, done in enumerate(mask.tolist()) if not done]
        low = min(rank[v] for v in unplaced)
        for node in reversed([v for v in unplaced if rank[v] == low]):
            try:
                row = _settled_row(chi, bbar, node, mask, tol)
            except NotRealizableError:
                continue
            child, child_mask = bbar.copy(), mask.copy()
            child[node], child_mask[node] = row, True
            stack.append((child, placed + [node], child_mask))


def enumerate_all(
    chi: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_d: int = 10,
) -> list[IdentifiedModel]:
    """All standardized coefficient matrices whose models have this chi.

    For every maximum chi-clique surviving the initial-set filter, causal
    orderings are explored depth-first; a prefix is abandoned as soon as its
    row recursion turns negative.  The cliques come from
    ``taildep._chi_cliques`` (Tomita, Tanaka & Takahashi, TCS 2006) with the
    filter's cut, which drops only cliques that :func:`clique_initial_filter`
    rejects (the argument is in its docstring); the filter judges the rest.
    Each leaf matrix must pass the full coefficient-matrix validity check
    and reproduce ``chi``.  An empty list means no recursive max-linear
    model has this tail dependence matrix.  A ``tol`` outside (0, 1) raises
    :class:`ValidationError`.

    Each clique member has a rank of its own, in ascending node order, below
    every other node, which ranks by how many members it depends on.  At
    each prefix the search tries the unplaced nodes of the lowest rank in
    ascending order, and skips a state it has explored before, keyed by the
    bytes of the partial matrix: unplaced rows are zero and placed ones have
    a positive diagonal, so the bytes fix the placed set too.  A row, summed
    in node order, is a function of chi and the placed rows, whatever order
    they were placed in.  The placed set grows strictly along a path, so a
    state repeats only after the subtree of its first visit has finished,
    whose leaves were judged by deterministic checks: the skip changes no
    model or order.  Each clique's search owns its memo and explicit stack.
    ``ordering_used`` is the lexicographically first rank-respecting order
    that :func:`recover_from_ordering` turns into the model, to the bit.

    The memo alone keeps the accepted supports distinct.  Within a clique,
    two leaves with one support are equal to the bit.  Each row is held at
    zero on the columns placed before it, so a node's ancestors in the
    support are placed before it in both leaves, and a placed row that is
    not an ancestor adds an exact 0.0 to the node-order sum.  By induction
    both leaves settle every row to the same bits, so the memo stops the
    second at its leaf state.  Across cliques, an accepted leaf reproduces
    chi within a relative ``tol`` < 1, and zero against a positive entry is
    a relative residual of 1, so it reproduces chi's zero pattern exactly.
    Its initial nodes are then its clique: a member depends neither on
    another member, with which its chi is zero, nor on a node placed after
    the clique; every other node has positive chi with some member, which a
    node without ancestors of its own could not have.

    The search is capped at ``max_d`` nodes (default 10) because its worst
    case is factorial; larger inputs raise :class:`EnumerationCapError`.
    """
    tol = _check_tol(tol)
    max_d = _count(max_d, "enumeration cap max_d")
    chi = validate_tdm(chi)
    d = chi.shape[0]
    if d > max_d:
        raise EnumerationCapError(
            f"enumeration over {d} nodes exceeds the cap of {max_d}; "
            "raise max_d explicitly to proceed"
        )
    positive = _positive_mask(chi)
    found: list[IdentifiedModel | None] = []

    for clique in _initial_sets(chi, positive, tol):
        # Members first, one at a time in ascending order (their internal
        # order never changes the matrix), then the others by how many
        # members they depend on: at least one, or the clique would grow.
        widx = [v - 1 for v in clique]
        rank = positive[widx, :].sum(axis=0).tolist()
        for r, w in enumerate(widx):
            rank[w] = r - len(widx)
        for bbar, placed in _leaves(chi, rank, tol):
            if is_mlcm(bbar, tol):
                ordering = CausalOrdering.from_node_order([v + 1 for v in placed])
                found.append(_identified(chi, bbar, clique, ordering, tol))

    return _sorted_models([m for m in found if m is not None])


def _rmwm_model(chi: np.ndarray, positive: np.ndarray, initials: Sequence[int],
                tol: float) -> IdentifiedModel | None:
    # The max-weighted model with these initial nodes, or None: the initial
    # nodes and chi's _positive_mask fix a causal ordering, the recovery on
    # it returns bbar (support gate included), and bbar must reproduce chi
    # and be max-weighted.
    ordering = _initial_ordering(chi, positive, initials)
    try:
        bbar = _recover_ordered(chi, ordering, tol)
    except NotRealizableError:
        return None
    model = _identified(chi, bbar, initials, ordering, tol)
    return model if model is not None and model.max_weighted else None


def enumerate_all_rmwm(
    chi: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> list[IdentifiedModel]:
    """All standardized coefficient matrices of max-weighted models with this chi.

    One candidate per surviving maximum chi-clique: recover through the
    implied causal ordering, then accept iff the support pattern is a
    reachability matrix, the max-weighted path identities hold and the
    candidate reproduces ``chi``.  No permutation search is involved.  The
    cliques come as in :func:`enumerate_all`: the random 50-node polytree of
    seed 2 has 21 504 maximum cliques, and the cut search lists only the 48
    that pass the filter.
    """
    tol = _check_tol(tol)
    chi = validate_tdm(chi)
    positive = _positive_mask(chi)
    cliques = _initial_sets(chi, positive, tol)
    found = [_rmwm_model(chi, positive, clique, tol) for clique in cliques]
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
    :func:`enumerate_all_rmwm` finds for ``other_initials``, if any.  A DAG
    whose size differs from chi's, or with a redundant edge, raises
    :class:`ValidationError`.
    """
    tol = _check_tol(tol)
    chi = _tdm_on(chi, transitive_reduction)
    redundant = transitive_reduction.edges - _transitive_reduction(transitive_reduction).edges
    if redundant:
        a, b = min(redundant)
        raise ValidationError(f"the DAG is not transitively reduced: edge {a}->{b} is redundant")
    positive = _positive_mask(chi)
    phi = _bijection(positive, initials, other_initials)
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
        model = _rmwm_model(chi, positive, sorted(phi.values()), tol)
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
