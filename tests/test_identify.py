import gc

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
    chi_single_edge,
    enumeration_models,
    large_models,
    three_strand_dag,
)
from maxlindag import (
    CausalOrdering,
    Dag,
    EnumerationCapError,
    NotRealizableError,
    PatternMismatchError,
    ValidationError,
    causal_orderings,
    enumerate_all,
    enumerate_all_rmwm,
    homogeneous_model,
    initial_bijection,
    is_rmwm_mlcm,
    mlcm_from_weights,
    ordering_from_initials,
    reachability_matrix,
    recover_from_ordering,
    recover_from_reachability,
    recover_rmwm_from_initials,
    rmwm_equivalence_constraints,
    standardize,
    tdm_from_std_mlcm,
    transitive_reduction,
)


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


def assert_same_as_row_loop(recover, chi, order, reach=None):
    """``recover()`` equals the one-row-at-a-time loop bit for bit, or both reject."""
    try:
        expected = oracles.recover_by_rows(chi, order, reach)
    except ValueError:
        expected = None
    if expected is None or (np.diag(expected) <= 0).any():
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
