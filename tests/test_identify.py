import gc
import hashlib
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress

import numpy as np
import pytest

import oracles
from cases import (
    BBAR_SHARED_TDM_A,
    BBAR_SHARED_TDM_B,
    BBAR_TRIANGLE_INVALID,
    BBAR_TRIANGLE_SECOND,
    BBAR_TRIANGLE_VALID,
    BBAR_TWO_CLIQUES_GENERAL,
    BBAR_TWO_CLIQUES_MW,
    CHI_TRIANGLE,
    CHI_TWO_CLIQUES,
    TWO_CLIQUES_GENERAL_DAG,
    TWO_CLIQUES_MW_DAG,
    bbar_single_edge,
    bbar_single_edge_reversed,
    chi_of,
    chi_single_edge,
    enumeration_models,
    large_models,
    polytrees_40,
    three_strand_dag,
)
from maxlindag import (
    CausalOrdering,
    Dag,
    EnumerationCapError,
    MaxlinError,
    NoiseSpec,
    NotRealizableError,
    PatternMismatchError,
    ValidationError,
    WeightedModel,
    causal_orderings,
    check_rmwm_tdm,
    chi_complement_graph,
    clique_initial_filter,
    empirical_tdm,
    enumerate_all,
    enumerate_all_rmwm,
    homogeneous_model,
    independence_pattern_check,
    initial_bijection,
    is_mlcm,
    is_rmwm_mlcm,
    max_weighted_triple,
    maximum_chi_cliques,
    minimum_ml_dag,
    mlcm_from_weights,
    model_from_std_mlcm,
    ordering_from_initials,
    random_weighted_model,
    reachability_matrix,
    recover_from_ordering,
    recover_from_reachability,
    recover_rmwm_from_initials,
    rmwm_equivalence_constraints,
    sample,
    standardize,
    tdm_from_std_mlcm,
    transitive_reduction,
    validate_tdm,
)
from maxlindag.simulate import _ROWS
from maxlindag.tolerance import ZERO_TOL


def hom_setup(dag: Dag, alpha: float = 1.0):
    bbar = standardize(mlcm_from_weights(homogeneous_model(dag, alpha)), alpha)
    return bbar, tdm_from_std_mlcm(bbar)


def large_cases() -> list[tuple[str, Dag, np.ndarray]]:
    """(name, DAG, chi) of every kind at d = 12 .. 60."""
    return [
        (name, m.dag, tdm_from_std_mlcm(standardize(mlcm_from_weights(m), 1.0)))
        for name, m in large_models()
    ]


LARGE_CASES = large_cases()

# (bbar, chi) past the default enumeration cap of d = 10.
ENUMERATION_CASES = [
    (bbar, tdm_from_std_mlcm(bbar))
    for bbar in (standardize(mlcm_from_weights(m), m.alpha) for m in enumeration_models())
]

# chi(1, 2) = 1 with 1 before 2 forces the whole of column 2 onto node 1,
# leaving node 2 a zero diagonal entry.
CHI_ZERO_DIAGONAL = np.ones((2, 2))
REACH_ZERO_DIAGONAL = np.array([[1, 1], [0, 1]])


def is_reachability_support(bbar: np.ndarray) -> bool:
    """The support of ``bbar`` is closed, has a unit diagonal and no 2-cycle."""
    support = bbar > 0
    d = len(support)
    edges = {(k + 1, i + 1) for k, i in zip(*np.nonzero(support)) if k != i}
    two_cycles = support & support.T & ~np.eye(d, dtype=bool)
    return np.array_equal(oracles.reachability(d, edges) == 1, support) and not two_cycles.any()


def recovers(chi, order, bbar) -> bool:
    """The recovery from the node ``order`` returns ``bbar`` to the bit."""
    try:
        recovered = recover_from_ordering(chi, CausalOrdering.from_node_order(order))
    except NotRealizableError:
        return False
    return np.array_equal(recovered, bbar)


def assert_same_as_row_loop(recover, chi, order, reach=None):
    """``recover()`` equals the one-row-at-a-time loop bit for bit, or both reject.

    The loop's matrix counts as rejected too when its support is not a
    reachability matrix: every recovery gates its output on that.
    """
    try:
        expected = oracles.recover_by_rows(chi, order, reach)
    except ValueError:
        expected = None
    if (
        expected is None
        or (np.diag(expected) <= 0).any()
        or not is_reachability_support(expected)
    ):
        with pytest.raises(NotRealizableError):
            recover()
    else:
        assert np.array_equal(recover(), expected)


class TestRowRecursionAgainstRowLoop:
    @pytest.mark.parametrize("name,dag,chi", LARGE_CASES, ids=[c[0] for c in LARGE_CASES])
    def test_large_models(self, name, dag, chi):
        reach = reachability_matrix(dag)
        by_ancestors = sorted(range(1, dag.d + 1), key=lambda j: (reach[:, j - 1].sum(), j))
        assert_same_as_row_loop(
            lambda: recover_from_reachability(chi, reach), chi, by_ancestors, reach
        )
        shuffled = tuple(np.random.default_rng(dag.d).permutation(dag.d) + 1)
        for order in (dag.topological_order(), shuffled):
            assert_same_as_row_loop(
                lambda: recover_from_ordering(chi, CausalOrdering.from_node_order(order)),
                chi, order,
            )

    def test_corpus(self, corpus):
        rng = np.random.default_rng(12)
        for entry in corpus:
            d = entry.dag.d
            by_ancestors = sorted(range(1, d + 1), key=lambda j: (entry.reach[:, j - 1].sum(), j))
            assert_same_as_row_loop(
                lambda: recover_from_reachability(entry.chi, entry.reach),
                entry.chi, by_ancestors, entry.reach,
            )
            for order in (entry.dag.topological_order(), tuple(rng.permutation(d) + 1)):
                assert_same_as_row_loop(
                    lambda: recover_from_ordering(entry.chi, CausalOrdering.from_node_order(order)),
                    entry.chi, order,
                )


class TestZeroDiagonalRejected:
    def test_ordering(self):
        with pytest.raises(NotRealizableError, match="diagonal"):
            recover_from_ordering(CHI_ZERO_DIAGONAL, (1, 2))

    def test_reachability(self):
        with pytest.raises(NotRealizableError, match="diagonal"):
            recover_from_reachability(CHI_ZERO_DIAGONAL, REACH_ZERO_DIAGONAL)


CHAIN3 = Dag(3, {(1, 2), (2, 3)})

# 2 and 3 each depend on 1 with coefficient 0.9, but are independent of each
# other: the two columns would have to sum past one, so no model exists.
CHI_UNREALIZABLE = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]])


class TestRecoverFromReachability:
    def test_single_edge(self):
        chi = chi_single_edge(0.5)
        reach = np.array([[1, 1], [0, 1]])
        np.testing.assert_allclose(
            recover_from_reachability(chi, reach), bbar_single_edge(0.5), atol=1e-15
        )

    def test_two_cliques_exact(self):
        reach = reachability_matrix(TWO_CLIQUES_MW_DAG)
        out = recover_from_reachability(CHI_TWO_CLIQUES, reach)
        np.testing.assert_allclose(out, BBAR_TWO_CLIQUES_MW, atol=1e-15)

    def test_identity_pattern(self):
        np.testing.assert_allclose(
            recover_from_reachability(np.eye(3), np.eye(3, dtype=int)), np.eye(3)
        )

    def test_pattern_mismatch_raises(self):
        with pytest.raises(PatternMismatchError):
            recover_from_reachability(chi_single_edge(0.5), np.eye(2, dtype=int))

    def test_unrealizable_chi_raises(self):
        # chain reachability, but chi(1,3) + chi(2,3) > 1 forces the last
        # diagonal entry negative
        chi = np.array([[1.0, 0.2, 0.95], [0.2, 1.0, 0.9], [0.95, 0.9, 1.0]])
        reach = np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        with pytest.raises(NotRealizableError):
            recover_from_reachability(chi, reach)

    def test_exact_inverse_on_corpus(self, corpus):
        for entry in corpus[:250]:
            out = recover_from_reachability(entry.chi, entry.reach)
            np.testing.assert_allclose(out, entry.bbar, atol=1e-9)

    def test_support_that_is_not_closed_raises(self):
        # The chain 1 -> 2 -> 3 with edge weights 1e-5 has bbar_13 near
        # 1e-10, which the row recursion snaps to zero: the support keeps
        # 1 -> 2 and 2 -> 3 but not 1 -> 3, and no model has that matrix.
        model = WeightedModel(CHAIN3, {(1, 2): 1e-5, (2, 3): 1e-5}, (1.0, 1.0, 1.0), 1.0)
        bbar = standardize(mlcm_from_weights(model), 1.0)
        assert 0.0 < bbar[0, 2] < 1e-9
        chi = tdm_from_std_mlcm(bbar)
        with pytest.raises(NotRealizableError, match="support is not a reachability matrix"):
            recover_from_reachability(chi, reachability_matrix(CHAIN3))
        with pytest.raises(NotRealizableError, match="support is not a reachability matrix"):
            recover_from_ordering(chi, (1, 2, 3))

    def test_d200_snapped_entries_raise(self):
        # Two true entries of this model lie in (0, 1e-9]; the snap once
        # returned a matrix without them.
        model = random_weighted_model(200, density=0.3, seed_or_rng=2)
        chi = tdm_from_std_mlcm(standardize(mlcm_from_weights(model), model.alpha))
        with pytest.raises(NotRealizableError, match="support is not a reachability matrix"):
            recover_from_reachability(chi, reachability_matrix(model.dag))

    def test_model_on_a_sub_dag_recovers_its_own_matrix(self):
        # The fork 2 <- 1 -> 3 and the chain 1 -> 2 -> 3 have the same
        # common-ancestor pattern; given the chain, the gate asks for a
        # closed support, not for the chain's.
        fork = Dag(3, {(1, 2), (1, 3)})
        model = WeightedModel(fork, {(1, 2): 0.5, (1, 3): 2.0}, (1.0, 1.0, 1.0), 1.0)
        bbar = standardize(mlcm_from_weights(model), 1.0)
        chi = tdm_from_std_mlcm(bbar)
        out = recover_from_reachability(chi, reachability_matrix(CHAIN3))
        assert np.array_equal(out, recover_from_reachability(chi, reachability_matrix(fork)))
        np.testing.assert_allclose(out, bbar, atol=1e-15)


class TestRecoverFromOrdering:
    @pytest.mark.parametrize("b", [0.25, 0.5, 0.9])
    def test_single_edge_both_orderings(self, b):
        chi = chi_single_edge(b)
        forward = recover_from_ordering(chi, CausalOrdering.from_node_order([1, 2]))
        reverse = recover_from_ordering(chi, CausalOrdering.from_node_order([2, 1]))
        np.testing.assert_allclose(forward, bbar_single_edge(b), atol=1e-15)
        np.testing.assert_allclose(reverse, bbar_single_edge_reversed(b), atol=1e-15)

    def test_triangle_both_matrices(self):
        identity = recover_from_ordering(CHI_TRIANGLE, CausalOrdering.from_node_order([1, 2, 3]))
        swapped = recover_from_ordering(CHI_TRIANGLE, CausalOrdering.from_node_order([1, 3, 2]))
        np.testing.assert_allclose(identity, BBAR_TRIANGLE_VALID, atol=1e-12)
        np.testing.assert_allclose(swapped, BBAR_TRIANGLE_INVALID, atol=1e-12)

    def test_negativity_and_snap_boundary(self):
        # Row 2 at column 3 is chi(2, 3) - min(chi(1, 2), chi(1, 3)) = -eps.
        def chi_with(eps):
            return np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5 - eps], [0.5, 0.5 - eps, 1.0]])

        with pytest.raises(NotRealizableError, match="at column 3"):
            recover_from_ordering(chi_with(2e-9), (1, 2, 3))
        out = recover_from_ordering(chi_with(0.5e-9), (1, 2, 3))
        assert out[1, 2] == 0.0 and out[2, 2] == 0.5

    def test_edgeless_identity(self):
        out = recover_from_ordering(np.eye(4), CausalOrdering.from_node_order([3, 1, 4, 2]))
        np.testing.assert_allclose(out, np.eye(4))

    def test_every_causal_ordering_recovers_bbar(self, corpus):
        for entry in corpus[:150]:
            for ordering in causal_orderings(entry.dag, limit=5):
                out = recover_from_ordering(entry.chi, ordering)
                np.testing.assert_allclose(out, entry.bbar, atol=1e-9)

    def test_matches_independent_row_recursion(self, corpus):
        for entry in corpus[:40]:
            order = next(iter(causal_orderings(entry.dag, limit=1))).node_order
            ours = recover_from_ordering(entry.chi, CausalOrdering.from_node_order(order))
            np.testing.assert_allclose(
                ours, oracles.recover_by_ordering(entry.chi, order), atol=1e-12
            )


class TestOrderingFromInitials:
    def test_two_cliques_layering(self):
        sigma = ordering_from_initials(CHI_TWO_CLIQUES, (1, 2))
        assert sigma.node_order == (1, 2, 4, 3)

    def test_homogeneous_chain_identity(self):
        _, chi = hom_setup(CHAIN3)
        assert ordering_from_initials(chi, (1,)).node_order == (1, 2, 3)

    def test_single_node(self):
        assert ordering_from_initials(np.eye(1), (1,)).node_order == (1,)

    def test_valid_for_any_max_weighted_model(self, rmwm_corpus):
        from maxlindag import validate_causal_ordering

        for entry in rmwm_corpus[:200]:
            v0 = sorted(entry.dag.initial_nodes())
            sigma = ordering_from_initials(entry.chi, v0)
            assert validate_causal_ordering(entry.dag, sigma)

    def test_non_clique_rejected(self):
        _, chi = hom_setup(CHAIN3)
        with pytest.raises(ValidationError):
            ordering_from_initials(chi, (1, 2))


class TestRecoverRmwmFromInitials:
    def test_two_cliques_true_initials(self):
        out = recover_rmwm_from_initials(CHI_TWO_CLIQUES, (1, 2))
        np.testing.assert_allclose(out, BBAR_TWO_CLIQUES_MW, atol=1e-15)

    def test_two_cliques_alternative_initials_give_the_general_matrix(self):
        out = recover_rmwm_from_initials(CHI_TWO_CLIQUES, (1, 4))
        np.testing.assert_allclose(out, BBAR_TWO_CLIQUES_GENERAL, atol=1e-15)
        assert not is_rmwm_mlcm(out).ok

    def test_homogeneous_chain(self):
        bbar, chi = hom_setup(CHAIN3)
        np.testing.assert_allclose(recover_rmwm_from_initials(chi, (1,)), bbar, atol=1e-12)

    def test_unique_on_max_weighted_corpus(self, rmwm_corpus):
        for entry in rmwm_corpus[:200]:
            v0 = sorted(entry.dag.initial_nodes())
            out = recover_rmwm_from_initials(entry.chi, v0)
            np.testing.assert_allclose(out, entry.bbar, atol=1e-9)

    def test_not_identifiable_outside_max_weighted_class(self):
        # two different standardized matrices, same chi, same initial node
        chi_a = tdm_from_std_mlcm(BBAR_SHARED_TDM_A)
        chi_b = tdm_from_std_mlcm(BBAR_SHARED_TDM_B)
        np.testing.assert_allclose(chi_a, chi_b, atol=1e-15)
        assert chi_a[1, 2] == pytest.approx(0.6)
        assert not is_rmwm_mlcm(BBAR_SHARED_TDM_A).ok
        assert not is_rmwm_mlcm(BBAR_SHARED_TDM_B).ok


class TestInitialBijection:
    def test_two_cliques(self):
        assert initial_bijection(CHI_TWO_CLIQUES, (1, 2), (1, 4)) == {1: 1, 2: 4}

    def test_same_set_is_identity(self):
        assert initial_bijection(CHI_TWO_CLIQUES, (1, 2), (1, 2)) == {1: 1, 2: 2}

    def test_homogeneous_chain_endpoints(self):
        _, chi = hom_setup(CHAIN3)
        assert initial_bijection(chi, (1,), (3,)) == {1: 3}

    def test_ambiguity_raises(self):
        chi = np.array(
            [
                [1.0, 0.0, 0.3, 0.3],
                [0.0, 1.0, 0.3, 0.3],
                [0.3, 0.3, 1.0, 0.0],
                [0.3, 0.3, 0.0, 1.0],
            ]
        )
        with pytest.raises(NotRealizableError):
            initial_bijection(chi, (1, 2), (3, 4))

    def test_sets_of_different_sizes_raise(self):
        with pytest.raises(ValidationError) as exc:
            initial_bijection(np.eye(3), [1, 2], [3])
        assert str(exc.value) == "initial sets have different sizes: 2 vs 1"

    def test_two_nodes_matched_to_one_raise(self):
        _, chi = hom_setup(Dag(4, {(1, 3), (2, 3)}))
        with pytest.raises(NotRealizableError) as exc:
            initial_bijection(chi, [1, 2], [3, 4])
        assert str(exc.value) == "matching {1: 3, 2: 3} is not a bijection"


class TestEquivalenceConstraints:
    def test_chain_and_its_reversal(self):
        _, chi = hom_setup(CHAIN3)
        report = rmwm_equivalence_constraints(chi, (1,), (3,), CHAIN3)
        assert report.ok
        assert report.bijection == {1: 3}
        assert report.alt_transitive_reduction.edges == frozenset({(3, 2), (2, 1)})

    def test_non_terminal_target_is_a_violation(self):
        _, chi = hom_setup(CHAIN3)
        report = rmwm_equivalence_constraints(chi, (1,), (2,), CHAIN3)
        assert not report.ok
        assert any("not a terminal node" in v for v in report.violations)

    def test_three_strand_terminal_is_the_only_candidate(self):
        # 99 is the only terminal node, so any differing equivalent model
        # must be rooted there; with homogeneous weights the recovery then
        # certifies that no such model exists for this particular chi.
        dag = three_strand_dag()
        _, chi = hom_setup(dag)
        assert dag.terminal_nodes() == {99}
        report = rmwm_equivalence_constraints(chi, (1,), (99,), transitive_reduction(dag))
        assert report.bijection == {1: 99}
        assert report.moved == (1,)
        assert not any("terminal" in v for v in report.violations)
        assert not report.ok
        assert any("no max-weighted model" in v for v in report.violations)

    def test_long_chain_reversal_exists_and_reverses_every_edge(self):
        d = 12
        chain = Dag(d, {(v, v + 1) for v in range(1, d)})
        _, chi = hom_setup(chain)
        report = rmwm_equivalence_constraints(chi, (1,), (d,), chain)
        assert report.ok
        assert report.alt_transitive_reduction.edges == frozenset(
            {(v + 1, v) for v in range(1, d)}
        )

    def test_dag_of_another_size_is_an_error(self):
        _, chi = hom_setup(CHAIN3)
        chain5 = Dag(5, {(v, v + 1) for v in range(1, 5)})
        with pytest.raises(ValidationError, match="3x3, DAG has 5 nodes"):
            rmwm_equivalence_constraints(chi, (1,), (3,), chain5)

    def test_dag_that_is_not_transitively_reduced_is_an_error(self):
        _, chi = hom_setup(CHAIN3)
        with pytest.raises(ValidationError, match="edge 1->3 is redundant"):
            rmwm_equivalence_constraints(chi, (1,), (3,), Dag(3, {(1, 2), (2, 3), (1, 3)}))

    def test_unreversed_edge_is_a_violation(self):
        # The chain's alternative model is 3 -> 2 -> 1; given the fork
        # 2 <- 1 -> 3 instead, 3 is still terminal but 1 -> 3 is not reversed.
        _, chi = hom_setup(CHAIN3)
        report = rmwm_equivalence_constraints(chi, (1,), (3,), Dag(3, {(1, 2), (1, 3)}))
        assert report.violations == (
            "(b) edge 1->3 on a path from moved node 1 to 3 is not reversed in the "
            "alternative transitive reduction",
        )

    def test_one_violation_per_edge_not_per_path(self):
        # A ladder of 16 diamonds t -> t+1, t+2 -> t+3 has 2**16 paths from 1
        # to 49; against the reversed chain only its 32 edges (t, t+2) and
        # (t+1, t+3) are unreversed.
        d, tops = 49, range(1, 49, 3)
        ladder = Dag(d, {
            e for t in tops for e in ((t, t + 1), (t, t + 2), (t + 1, t + 3), (t + 2, t + 3))
        })
        _, chi = hom_setup(Dag(d, {(v, v + 1) for v in range(1, d)}))
        report = rmwm_equivalence_constraints(chi, (1,), (d,), ladder)
        unreversed = sorted(e for t in tops for e in ((t, t + 2), (t + 1, t + 3)))
        assert report.violations == tuple(
            f"(b) edge {a}->{b} on a path from moved node 1 to {d} is not reversed in the "
            "alternative transitive reduction"
            for a, b in unreversed
        )


class TestEnumerateAll:
    def test_two_cliques_exactly_two_models(self):
        models = enumerate_all(CHI_TWO_CLIQUES)
        assert len(models) == 2
        by_initials = {m.initial_nodes: m for m in models}
        mw = by_initials[(1, 2)]
        general = by_initials[(1, 4)]
        np.testing.assert_allclose(mw.std_mlcm, BBAR_TWO_CLIQUES_MW, atol=1e-12)
        np.testing.assert_allclose(general.std_mlcm, BBAR_TWO_CLIQUES_GENERAL, atol=1e-12)
        assert mw.max_weighted and not general.max_weighted
        assert mw.min_ml_dag == TWO_CLIQUES_MW_DAG
        assert general.min_ml_dag == TWO_CLIQUES_GENERAL_DAG

    def test_triangle_two_models_invalid_candidate_rejected(self):
        models = enumerate_all(CHI_TRIANGLE)
        assert len(models) == 2
        matrices = [m.std_mlcm for m in models]
        assert any(np.allclose(m, BBAR_TRIANGLE_VALID, atol=1e-12) for m in matrices)
        assert any(np.allclose(m, BBAR_TRIANGLE_SECOND, atol=1e-12) for m in matrices)
        assert not any(np.allclose(m, BBAR_TRIANGLE_INVALID, atol=1e-12) for m in matrices)

    def test_identity_pattern_single_model(self):
        models = enumerate_all(np.eye(4))
        assert len(models) == 1
        np.testing.assert_allclose(models[0].std_mlcm, np.eye(4))
        assert models[0].initial_nodes == (1, 2, 3, 4)

    def test_unrealizable_chi_gives_empty_list(self):
        assert enumerate_all(CHI_UNREALIZABLE) == []

    def test_cap_is_enforced_and_overridable(self):
        chi = np.eye(11)
        with pytest.raises(EnumerationCapError):
            enumerate_all(chi)
        assert len(enumerate_all(chi, max_d=11)) == 1

    def test_outputs_are_valid_and_reproduce_chi(self, corpus):
        from maxlindag import is_mlcm, validate_causal_ordering

        cases = [(entry.bbar, entry.chi) for entry in corpus[:80]] + ENUMERATION_CASES
        for bbar, chi in cases:
            models = enumerate_all(chi, max_d=12)
            assert models, "generating model must always be found"
            clique_sizes = {len(m.initial_nodes) for m in models}
            assert len(clique_sizes) == 1
            assert any(np.allclose(m.std_mlcm, bbar, atol=1e-9) for m in models)
            assert len({(m.std_mlcm > 0).tobytes() for m in models}) == len(models)
            for m in models:
                assert is_mlcm(m.std_mlcm).ok
                assert validate_causal_ordering(m.min_ml_dag, m.ordering_used)
                np.testing.assert_allclose(tdm_from_std_mlcm(m.std_mlcm), chi, atol=1e-9)
                # The search and the recovery run one row recursion, which
                # sums the settled rows in node order.
                assert np.array_equal(recover_from_ordering(chi, m.ordering_used), m.std_mlcm)

    def test_ordering_used_is_the_first_order_that_recovers_the_model(self, corpus):
        # A rank-respecting order places the clique members first, in
        # ascending order, then the other nodes by how many members they
        # depend on.  The search tries ties in ascending order, so the first
        # such order in lexicographic order whose recovery is the model is
        # the one it reports.
        checked = 0
        for entry in corpus[:80]:
            d = entry.dag.d
            if d > 6:
                continue
            positive = entry.chi > ZERO_TOL
            for m in enumerate_all(entry.chi):
                members = [v - 1 for v in m.initial_nodes]
                rank = positive[members].sum(axis=0)
                rank[members] = np.arange(len(members)) - len(members)
                first = next(
                    order for order in itertools.permutations(range(1, d + 1))
                    if all(np.diff(rank[np.array(order) - 1]) >= 0)
                    and recovers(entry.chi, order, m.std_mlcm)
                )
                assert m.ordering_used.node_order == first
                checked += 1
        assert checked == 258

    @pytest.mark.parametrize("tol", [1e-6, 1e-3])
    def test_supports_stay_distinct_at_looser_tolerances(self, corpus, tol):
        # No support check guards the output: the prefix-state memo alone
        # must keep one model per support, and each model's clique must be
        # the parentless nodes of its support.
        cases = [(entry.bbar, entry.chi) for entry in corpus[:80]] + ENUMERATION_CASES
        for _, chi in cases:
            models = enumerate_all(chi, tol, max_d=12)
            assert len({(m.std_mlcm > 0).tobytes() for m in models}) == len(models)
            for m in models:
                roots = tuple(v for v in range(1, m.min_ml_dag.d + 1)
                              if not m.min_ml_dag.parents(v))
                assert m.initial_nodes == roots

    @pytest.mark.parametrize(
        "tol", [0.0, -1e-9, 1.0, 2.0, float("nan"), float("inf"), True, "1e-9"]
    )
    def test_tolerance_outside_the_unit_interval_raises(self, tol):
        # At tol 1 the identity passes the chi round trip of this chi, which
        # it does not reproduce: a relative residual of 1 hides chi(1, 2).
        # Every public function that takes a tol takes the same range, and
        # so does the quantile level of empirical_tdm.
        chi = np.array([[1 + 1e-10, 0.5], [0.5, 1 + 1e-10]])
        chain = np.array([[0.5, 0.25, 0.125], [0.0, 0.25, 0.125], [0.0, 0.0, 0.25]])
        chain = chain / chain.sum(axis=0)
        block = sample(homogeneous_model(Dag(2, {(1, 2)}), 1.0), NoiseSpec("pareto", 1.0),
                       100, 1)
        calls = [
            lambda: enumerate_all(chi, tol),
            lambda: enumerate_all_rmwm(chi, tol),
            lambda: recover_from_reachability(chi, np.array([[1, 1], [0, 1]]), tol),
            lambda: recover_from_ordering(chi, (1, 2), tol),
            lambda: recover_rmwm_from_initials(chi, (1,), tol),
            lambda: rmwm_equivalence_constraints(chi, (1,), (2,), Dag(2, {(1, 2)}), tol),
            lambda: is_mlcm(chain, tol),
            lambda: is_rmwm_mlcm(chain, tol),
            lambda: minimum_ml_dag(chain, tol),
            lambda: max_weighted_triple(chain, 1, 2, 3, tol),
            lambda: model_from_std_mlcm(chain, 1.0, tol),
            lambda: clique_initial_filter(chi, (1,), tol),
            lambda: check_rmwm_tdm(Dag(2, {(1, 2)}), chi, tol),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="tol must lie in"):
                call()
        with pytest.raises(ValidationError, match="quantile level must lie in"):
            empirical_tdm(block, tol)

    def test_prefix_states_are_not_shared_between_cliques(self):
        # Every clique's search starts from the same empty state; a memo
        # shared across cliques returned 4 of these 28 models.
        model = random_weighted_model(12, density=0.3, seed_or_rng=100, polytree=True)
        chi = tdm_from_std_mlcm(standardize(mlcm_from_weights(model), model.alpha))
        assert len(enumerate_all(chi, max_d=12)) == 28

    def test_matches_permutation_scan_oracle(self, corpus):
        checked = 0
        for entry in corpus:
            if entry.dag.d > 5:
                continue
            ours = {
                np.round(m.std_mlcm, 9).tobytes() for m in enumerate_all(entry.chi)
            }
            assert ours == oracles.enumerate_by_permutation_scan(entry.chi)
            checked += 1
            if checked >= 60:
                break
        assert checked == 60

    def test_search_depth_is_not_bound_by_the_recursion_limit(self):
        # The identity chi has one clique, whose 150 members are placed one
        # per level: a recursive search needs a frame per level.
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            models = enumerate_all(np.eye(150), max_d=150)
        finally:
            sys.setrecursionlimit(limit)
        assert [m.initial_nodes for m in models] == [tuple(range(1, 151))]
        np.testing.assert_array_equal(models[0].std_mlcm, np.eye(150))

    def test_leaves_collected_first_give_the_same_models(self, monkeypatch, corpus):
        # Every leaf the search yields owns its matrix and order: accepting
        # them only after the search has finished changes no model.
        from maxlindag import identify

        search = identify._leaves
        inputs = [(entry.chi, 10) for entry in corpus[:150]]
        inputs += [(chi_of(model), 12) for model in enumeration_models()]
        for chi, max_d in inputs:
            streamed = model_record(enumerate_all(chi, max_d=max_d))
            with monkeypatch.context() as patch:
                patch.setattr(identify, "_leaves", lambda *args: iter(list(search(*args))))
                collected = model_record(enumerate_all(chi, max_d=max_d))
            assert collected == streamed

    def test_cancellation_residue_does_not_corrupt_the_support(self):
        # ten nodes, deep enough that the row recursion for non-ancestor
        # entries leaves ~1e-16 residue instead of exact zeros; the
        # generating matrix must still be found
        from maxlindag import random_weighted_model, mlcm_from_weights, standardize

        model = random_weighted_model(10, 0.35, (0.5, 2.0), 1.0, 1002)
        bbar = standardize(mlcm_from_weights(model), 1.0)
        chi = tdm_from_std_mlcm(bbar)
        models = enumerate_all(chi)
        assert any(np.abs(m.std_mlcm - bbar).max() <= 1e-9 for m in models)

    def test_deterministic_output_order(self):
        first = enumerate_all(CHI_TWO_CLIQUES)
        second = enumerate_all(CHI_TWO_CLIQUES)
        assert [m.initial_nodes for m in first] == [m.initial_nodes for m in second]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.std_mlcm, b.std_mlcm)


class TestEnumerateAllRmwm:
    def test_two_cliques_single_max_weighted_model(self):
        models = enumerate_all_rmwm(CHI_TWO_CLIQUES)
        assert len(models) == 1
        np.testing.assert_allclose(models[0].std_mlcm, BBAR_TWO_CLIQUES_MW, atol=1e-12)
        assert models[0].initial_nodes == (1, 2)
        assert models[0].min_ml_dag.edges == frozenset({(1, 3), (2, 3), (2, 4)})

    def test_homogeneous_chain_has_chain_and_reversal(self):
        bbar, chi = hom_setup(CHAIN3)
        models = enumerate_all_rmwm(chi)
        assert [m.initial_nodes for m in models] == [(1,), (3,)]
        np.testing.assert_allclose(models[0].std_mlcm, bbar, atol=1e-12)
        reversed_chain = models[1]
        assert reversed_chain.min_ml_dag.edges == frozenset({(3, 2), (2, 1)})

    def test_unrealizable_chi_gives_empty_list(self):
        assert enumerate_all_rmwm(CHI_UNREALIZABLE) == []

    def test_contains_generating_model_on_max_weighted_corpus(self, rmwm_corpus):
        for entry in rmwm_corpus[:150]:
            models = enumerate_all_rmwm(entry.chi)
            assert any(np.allclose(m.std_mlcm, entry.bbar, atol=1e-9) for m in models)
            for m in models:
                assert m.max_weighted
                assert is_rmwm_mlcm(m.std_mlcm).ok
                np.testing.assert_allclose(
                    tdm_from_std_mlcm(m.std_mlcm), entry.chi, atol=1e-9
                )

    def test_subset_of_general_enumeration(self, corpus):
        for entry in corpus[:40]:
            general = {
                np.round(m.std_mlcm, 9).tobytes() for m in enumerate_all(entry.chi)
            }
            for m in enumerate_all_rmwm(entry.chi):
                assert np.round(m.std_mlcm, 9).tobytes() in general


# chi(1, 2) = 5e-10 is positive to the clique search, but the row recursion
# snaps it to zero; the identity it leaves passes is_mlcm, and only the chi
# round trip rejects it.
CHI_SNAPPED = np.array([[1.0, 5e-10], [5e-10, 1.0]])


@pytest.mark.parametrize("enumerate_models", [enumerate_all, enumerate_all_rmwm])
def test_round_trip_rejects_a_snapped_model(enumerate_models):
    for m in enumerate_models(CHI_SNAPPED):
        assert not np.array_equal(m.std_mlcm, np.eye(2))
        assert np.abs(tdm_from_std_mlcm(m.std_mlcm) - CHI_SNAPPED).max() <= 1e-9


def test_searches_free_themselves_without_the_cycle_collector(corpus):
    # A search whose recursion keeps a reference cycle (a nested function
    # that calls itself) leaves its frames for the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        for entry in corpus[:150]:
            enumerate_all(entry.chi)
            enumerate_all_rmwm(entry.chi)
            list(causal_orderings(entry.dag, limit=5))
        assert gc.collect() == 0
    finally:
        gc.enable()


def model_record(models) -> list[tuple]:
    """Everything an enumerated model holds, as bytes and tuples, in list order."""
    return [
        (m.std_mlcm.tobytes(), m.initial_nodes, m.ordering_used.positions,
         sorted(m.min_ml_dag.edges), m.max_weighted)
        for m in models
    ]


class TestOneCliqueSearch:
    """Both enumerators give the bytes of the route through the public calls.

    That route lists every maximum clique with ``maximum_chi_cliques`` and
    has the enumerator put each through ``clique_initial_filter``; the
    enumerators' own search drops cliques the filter would reject first.
    ``enumerate_all`` cannot run at d = 40; the clique lists it would get
    there are compared in ``test_taildep.TestFilterCut``.
    """

    @staticmethod
    def both_routes(monkeypatch, enumerate_models, chi, **kwargs):
        from maxlindag import identify

        ours = model_record(enumerate_models(chi, **kwargs))
        with monkeypatch.context() as patch:
            patch.setattr(identify, "_chi_cliques",
                          lambda tdm, cut: maximum_chi_cliques(tdm.values))
            public = model_record(enumerate_models(chi, **kwargs))
        return ours, public

    def test_corpus(self, monkeypatch, corpus):
        found = 0
        for entry in corpus:
            for enumerate_models in (enumerate_all, enumerate_all_rmwm):
                ours, public = self.both_routes(monkeypatch, enumerate_models, entry.chi)
                assert ours == public
                found += len(ours)
        assert found > 1000

    def test_enumeration_models(self, monkeypatch):
        for model in enumeration_models():
            chi = chi_of(model)
            ours, public = self.both_routes(monkeypatch, enumerate_all, chi, max_d=12)
            assert ours == public and ours
            ours, public = self.both_routes(monkeypatch, enumerate_all_rmwm, chi)
            assert ours == public

    def test_structure_large_polytrees(self, monkeypatch):
        counts = []
        for model in polytrees_40():
            ours, public = self.both_routes(monkeypatch, enumerate_all_rmwm, chi_of(model))
            assert ours == public
            counts.append(len(ours))
        assert min(counts) > 0


class TestModelsAgreeWithThePublicChecks:
    """Each model's ``min_ml_dag`` and ``max_weighted`` are what the public
    checks say of its ``std_mlcm``, though the enumerators read both off one
    kernel pass with no second support gate."""

    @staticmethod
    def checked(models, tol) -> int:
        for model in models:
            assert model.min_ml_dag.edges == minimum_ml_dag(model.std_mlcm, tol).edges
            assert model.max_weighted == is_rmwm_mlcm(model.std_mlcm, tol).ok
        return len(models)

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_corpus(self, corpus, tol):
        found = sum(self.checked(enumerate_models(entry.chi, tol), tol)
                    for entry in corpus for enumerate_models in (enumerate_all, enumerate_all_rmwm))
        assert found > 1000

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_enumeration_models(self, tol):
        for model in enumeration_models():
            chi = chi_of(model)
            assert self.checked(enumerate_all(chi, tol, max_d=12), tol) > 0
            self.checked(enumerate_all_rmwm(chi, tol), tol)

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_structure_large_polytrees(self, tol):
        assert min(self.checked(enumerate_all_rmwm(chi_of(model), tol), tol)
                   for model in polytrees_40()) > 0


class TestRecoveriesValidateChiOnce:
    """Each recovery gives the bytes, or the error type and message, of its
    route through the public calls, which validates chi in every call."""

    MISMATCH = ("zero pattern of the tail dependence matrix does not match the "
                "common-ancestor pattern of the reachability matrix")

    @classmethod
    def reachability_route(cls, chi, reach, tol):
        from maxlindag import identify

        chi = validate_tdm(chi)
        if not independence_pattern_check(chi, reach):
            raise PatternMismatchError(cls.MISMATCH)
        reach = np.asarray(reach).astype(bool)
        order = np.argsort(reach.sum(axis=0), kind="stable").tolist()
        return identify._recover(chi, order, reach, tol)

    @staticmethod
    def ordering_route(chi, ordering, tol):
        from maxlindag import identify

        pos = np.asarray(ordering.positions)
        order = [v - 1 for v in ordering.node_order]
        return identify._recover(validate_tdm(chi), order, pos[None, :] >= pos[:, None], tol)

    @staticmethod
    def initials_route(chi, initials, tol):
        return recover_from_ordering(chi, ordering_from_initials(chi, initials), tol)

    @staticmethod
    def digest(calls) -> tuple[str, set[str]]:
        # One hash over every outcome, and the kinds of outcome seen.
        h, kinds = hashlib.sha256(), set()
        for call, *args in calls:
            try:
                outcome = call(*args).tobytes()
                kinds.add("matrix")
            except MaxlinError as exc:
                outcome = f"{type(exc).__name__}: {exc}".encode()
                kinds.add(type(exc).__name__)
            h.update(len(outcome).to_bytes(8, "little") + outcome)
        return h.hexdigest(), kinds

    def test_one_validation_per_recovery(self, monkeypatch):
        from maxlindag import identify, taildep

        model = random_weighted_model(6, density=0.5, seed_or_rng=3, polytree=True)
        chi, dag = chi_of(model), model.dag
        reach = reachability_matrix(dag)
        order = CausalOrdering.from_node_order(dag.topological_order())
        original, calls = taildep.validate_tdm, []

        def counted(chi):
            calls.append(chi)
            return original(chi)

        for module in (identify, taildep):
            monkeypatch.setattr(module, "validate_tdm", counted)
        for recovery, side in [(recover_from_reachability, reach),
                               (recover_from_reachability, reach.T),
                               (recover_from_ordering, order),
                               (recover_rmwm_from_initials, sorted(dag.initial_nodes()))]:
            calls.clear()
            with suppress(PatternMismatchError):
                recovery(chi, side)
            assert len(calls) == 1

    def test_corpus_with_true_and_wrong_side_information(self, corpus):
        ours, routes = [], []
        for index, entry in enumerate(corpus):
            chi, dag = entry.chi, entry.dag
            other = next(e for e in corpus[index + 1:] + corpus if e.dag.d == dag.d)
            order = CausalOrdering.from_node_order(dag.topological_order())
            backwards = CausalOrdering.from_node_order(dag.topological_order()[::-1])
            for reach in (entry.reach, other.reach, entry.reach.T):
                ours.append((recover_from_reachability, chi, reach, 1e-9))
                routes.append((self.reachability_route, chi, reach, 1e-9))
            for ordering in (order, backwards):
                ours.append((recover_from_ordering, chi, ordering, 1e-9))
                routes.append((self.ordering_route, chi, ordering, 1e-9))
            for initials in (dag.initial_nodes(), dag.terminal_nodes(),
                             other.dag.initial_nodes()):
                ours.append((recover_rmwm_from_initials, chi, sorted(initials), 1e-9))
                routes.append((self.initials_route, chi, sorted(initials), 1e-9))
        digest, kinds = self.digest(ours)
        assert (digest, kinds) == self.digest(routes)
        assert kinds == {"matrix", "PatternMismatchError", "NotRealizableError",
                         "ValidationError"}


class TestMaxWeightedPathsReadChiOnce:
    """A public call validates chi once and forms its zero pattern once;
    only the public filter calls of the clique search form their own.  The
    pattern is formed in ``taildep._tdm`` alone, so the mask counter patches
    ``taildep`` only."""

    @staticmethod
    def counted(monkeypatch, name: str, modules) -> list:
        calls, original = [], getattr(modules[0], name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in modules:
            monkeypatch.setattr(module, name, counting)
        return calls

    def test_equivalence_constraints_validate_chi_once(self, monkeypatch):
        from maxlindag import identify, taildep

        chi = chi_of(random_weighted_model(8, seed_or_rng=4, polytree=True))
        models = enumerate_all_rmwm(chi)
        assert len(models) == 2
        validations = self.counted(monkeypatch, "validate_tdm", (taildep, identify))
        masks = self.counted(monkeypatch, "_positive_mask", (taildep,))
        for a, b in itertools.permutations(models, 2):
            validations.clear()
            masks.clear()
            report = rmwm_equivalence_constraints(
                chi, a.initial_nodes, b.initial_nodes, transitive_reduction(a.min_ml_dag))
            assert report.alt_transitive_reduction == b.min_ml_dag
            assert (len(validations), len(masks)) == (1, 1)

    def test_enumerate_all_rmwm_forms_one_zero_pattern_beside_the_filter(self, monkeypatch):
        from maxlindag import identify, taildep

        chi = chi_of(random_weighted_model(40, seed_or_rng=3, polytree=True))
        expected = model_record(enumerate_all_rmwm(chi))
        masks = self.counted(monkeypatch, "_positive_mask", (taildep,))
        filters = self.counted(monkeypatch, "clique_initial_filter", (identify,))
        assert model_record(enumerate_all_rmwm(chi)) == expected
        assert len(filters) > 0
        assert len(masks) == 1 + len(filters)

    def test_every_public_reader_of_the_pattern_forms_it_once(self, monkeypatch):
        # The public calls that refuse chi's (0, ZERO_TOL) band, each on a chi
        # it accepts; an enumerator forms one more per public filter call.
        from maxlindag import identify, taildep

        model = random_weighted_model(8, seed_or_rng=4, polytree=True)
        chi, reach = chi_of(model), reachability_matrix(model.dag)
        a, b = enumerate_all_rmwm(chi)
        calls = {
            "recover_from_reachability": lambda: recover_from_reachability(chi, reach),
            "ordering_from_initials": lambda: ordering_from_initials(chi, a.initial_nodes),
            "recover_rmwm_from_initials":
                lambda: recover_rmwm_from_initials(chi, a.initial_nodes),
            "initial_bijection": lambda: initial_bijection(chi, a.initial_nodes, b.initial_nodes),
            "enumerate_all": lambda: enumerate_all(chi),
            "enumerate_all_rmwm": lambda: enumerate_all_rmwm(chi),
            "rmwm_equivalence_constraints": lambda: rmwm_equivalence_constraints(
                chi, a.initial_nodes, b.initial_nodes, transitive_reduction(a.min_ml_dag)),
            "independence_pattern_check": lambda: independence_pattern_check(chi, reach),
            "chi_complement_graph": lambda: chi_complement_graph(chi),
            "maximum_chi_cliques": lambda: maximum_chi_cliques(chi),
            "clique_initial_filter": lambda: clique_initial_filter(chi, a.initial_nodes),
        }
        validations = self.counted(monkeypatch, "validate_tdm", (taildep, identify))
        masks = self.counted(monkeypatch, "_positive_mask", (taildep,))
        filters = self.counted(monkeypatch, "clique_initial_filter", (identify,))
        counts, expected = {}, {}
        for name, call in calls.items():
            validations.clear()
            masks.clear()
            filters.clear()
            call()
            counts[name] = (len(validations), len(masks))
            expected[name] = (1 + len(filters), 1 + len(filters))
        assert counts == expected
        assert min(counts["enumerate_all"][1], counts["enumerate_all_rmwm"][1]) > 1


def test_threads_share_inputs_and_match_the_serial_bytes():
    # Four threads on the same inputs, among them a Dag whose reachability
    # cache is filled by whichever thread comes first, with the interpreter
    # switching threads as often as it can.
    small = random_weighted_model(8, density=0.4, seed_or_rng=5, polytree=True)
    chi, chi_large = chi_of(small), chi_of(polytrees_40()[0])
    noise = NoiseSpec("pareto", small.alpha)

    def outputs(model: WeightedModel) -> list:
        # The sample spans two row blocks of the sampler and the estimator.
        block = sample(model, noise, _ROWS + 1000, 3)
        return [
            model_record(enumerate_all(chi)),
            model_record(enumerate_all_rmwm(chi)),
            model_record(enumerate_all_rmwm(chi_large)),
            recover_from_reachability(chi, reachability_matrix(model.dag)).tobytes(),
            block.values.tobytes(),
            empirical_tdm(block, 0.95).tobytes(),
        ]

    def fresh() -> WeightedModel:
        dag = Dag(small.d, small.dag.edges)
        return WeightedModel(dag, small.edge_weights, small.noise_scales, small.alpha)

    serial = outputs(fresh())
    shared = fresh()
    assert shared.dag._reach is None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(outputs, shared) for _ in range(8)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8 and all(result == serial for result in results)
