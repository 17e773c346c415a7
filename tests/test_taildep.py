import warnings

import numpy as np
import pytest

import oracles
from cases import (
    BBAR_DENSE4_DIRECT,
    BBAR_DENSE4_THROUGH,
    BBAR_FORKS4,
    BBAR_TWO_CLIQUES_MW,
    CHI_TWO_CLIQUES,
    TWO_CLIQUES_ALT_DAG,
    TWO_CLIQUES_MW_DAG,
    bbar_single_edge,
    chi_of,
    enumeration_models,
    polytrees_40,
    three_strand_dag,
    three_strand_join_dag,
)
from maxlindag import (
    Dag,
    IllConditionedError,
    NotRealizableError,
    ValidationError,
    check_rmwm_tdm,
    chi_complement_graph,
    clique_initial_filter,
    enumerate_all,
    enumerate_all_rmwm,
    homogeneous_model,
    independence_pattern_check,
    initial_bijection,
    is_mlcm,
    is_rmwm_mlcm,
    lambda_coefficients,
    limit_cdf,
    lambda_representation,
    lowest_common_ancestors,
    maximum_chi_cliques,
    minimum_ml_dag,
    mlcm_from_weights,
    mu_coefficients,
    mu_representation,
    ordering_from_initials,
    random_weighted_model,
    reachability_matrix,
    recover_from_ordering,
    recover_from_reachability,
    recover_rmwm_from_initials,
    rmwm_equivalence_constraints,
    standardize,
    tdm_from_std_mlcm,
    transitive_reduction,
    validate_tdm,
)


def hom_chi(dag: Dag, alpha: float = 1.0) -> np.ndarray:
    bbar = standardize(mlcm_from_weights(homogeneous_model(dag, alpha)), alpha)
    return tdm_from_std_mlcm(bbar)


class TestTdmFromStdMlcm:
    def test_single_edge_coefficient(self):
        for b in (0.25, 0.5, 0.9):
            chi = tdm_from_std_mlcm(bbar_single_edge(b))
            assert chi[0, 1] == pytest.approx(b)
            assert chi[1, 0] == pytest.approx(b)

    def test_dense4_values_and_product_gap(self):
        chi = tdm_from_std_mlcm(BBAR_DENSE4_THROUGH)
        assert chi[1, 2] == pytest.approx(0.4)
        assert chi[2, 3] == pytest.approx(0.675)
        assert chi[1, 3] == pytest.approx(0.25)
        # max-weighted route, yet chi(2,4) < chi(2,3)*chi(3,4)
        assert chi[1, 3] < chi[1, 2] * chi[2, 3]

    def test_dense4_direct_edge_chi_products_still_multiply(self):
        chi = tdm_from_std_mlcm(BBAR_DENSE4_DIRECT)
        assert chi[1, 2] * chi[2, 3] == pytest.approx(chi[1, 3])

    def test_two_cliques_matrix_reproduced_exactly(self):
        chi = tdm_from_std_mlcm(BBAR_TWO_CLIQUES_MW)
        np.testing.assert_allclose(chi, CHI_TWO_CLIQUES, atol=1e-15)

    def test_product_identity_without_ancestry(self):
        # 3 is not an ancestor of 4, yet chi(1,3)*chi(3,4) = chi(1,4)
        chi = tdm_from_std_mlcm(BBAR_FORKS4)
        assert chi[0, 2] * chi[2, 3] == pytest.approx(chi[0, 3])

    def test_matches_direct_sum_oracle(self, corpus):
        for entry in corpus[:150]:
            np.testing.assert_allclose(entry.chi, oracles.tdm(entry.bbar), atol=1e-12)

    def test_symmetric_unit_diagonal_in_range(self, corpus):
        for entry in corpus[:150]:
            chi = entry.chi
            assert np.array_equal(chi, chi.T)
            np.testing.assert_allclose(np.diag(chi), 1.0, atol=1e-12)
            assert (chi >= 0).all() and (chi <= 1 + 1e-12).all()

    @pytest.mark.parametrize("block", [1, 200, 500])
    def test_row_blocks_bit_equal_to_one_pass_and_symmetric(self, monkeypatch, block):
        from maxlindag import taildep

        model = random_weighted_model(10, density=0.5, seed_or_rng=4)
        bbar = standardize(mlcm_from_weights(model), 1.0)
        whole = tdm_from_std_mlcm(bbar)
        monkeypatch.setattr(taildep, "_MIN_SUM_BLOCK", block)
        rows = max(1, block // bbar.size)  # 1, 2 or 5 output rows per block
        assert rows < 10
        blocked = tdm_from_std_mlcm(bbar)
        assert np.array_equal(blocked, whole)
        assert np.array_equal(blocked, blocked.T)

    def test_rejects_unnormalized_columns(self):
        with pytest.raises(ValidationError):
            tdm_from_std_mlcm(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_column_sum_tolerance_boundary(self):
        for gap, kept in ((0.5e-8, True), (2e-8, False)):
            bbar = np.array([[1.0, 0.5], [0.0, 0.5 + gap]])
            if kept:
                tdm_from_std_mlcm(bbar)
            else:
                with pytest.raises(ValidationError, match="column 2 sums to"):
                    tdm_from_std_mlcm(bbar)

    def test_a_column_sum_beyond_float64_is_rejected_without_a_warning(self):
        # The column sums once overflowed with a RuntimeWarning first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                tdm_from_std_mlcm(np.array([[1e308, 1e308], [0.0, 1e308]]))
        assert str(exc.value) == "column 2 sums to inf, expected 1"


class TestValidateTdm:
    def test_asymmetric_names_the_entry(self):
        chi = np.array([[1.0, 0.3], [0.2, 1.0]])
        with pytest.raises(ValidationError, match=r"\(1,2\)"):
            validate_tdm(chi)

    def test_bad_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="diagonal"):
            validate_tdm(np.array([[0.9, 0.2], [0.2, 1.0]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            validate_tdm(np.array([[1.0, 1.2], [1.2, 1.0]]))

    @pytest.mark.parametrize("check, message", [
        (lambda gap: [[1.0, 0.5 + gap], [0.5, 1.0]], "asymmetric"),
        (lambda gap: [[1.0 + gap, 0.5], [0.5, 1.0]], "diagonal"),
        (lambda gap: [[1.0, -gap], [-gap, 1.0]], "outside"),
        (lambda gap: [[1.0, 1.0 + gap], [1.0 + gap, 1.0]], "outside"),
    ], ids=["asymmetry", "diagonal", "below-zero", "above-one"])
    def test_tolerance_boundary(self, check, message):
        # Each check allows DEFAULT_TOL: half of it passes, twice it fails.
        validate_tdm(np.array(check(0.5e-9)))
        with pytest.raises(ValidationError, match=message):
            validate_tdm(np.array(check(2e-9)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValidationError, match="non-finite"):
            validate_tdm(np.array([[1.0, value], [value, 1.0]]))
        with pytest.raises(ValidationError, match="non-finite"):
            tdm_from_std_mlcm(np.array([[1.0, value], [0.0, 1.0]]))


class TestIndependencePattern:
    def test_holds_on_generated_models(self, corpus):
        for entry in corpus[:200]:
            assert independence_pattern_check(entry.chi, entry.reach)

    def test_two_cliques_example(self):
        reach = reachability_matrix(TWO_CLIQUES_MW_DAG)
        assert independence_pattern_check(CHI_TWO_CLIQUES, reach)

    def test_flipping_a_zero_breaks_it(self):
        chi = CHI_TWO_CLIQUES.copy()
        chi[0, 1] = chi[1, 0] = 0.1
        reach = reachability_matrix(TWO_CLIQUES_MW_DAG)
        assert not independence_pattern_check(chi, reach)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            independence_pattern_check(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("chi", [
        [[1.0, np.nan], [np.nan, 1.0]],
        [[1.0, np.inf], [np.inf, 1.0]],
        [[1.0, 0.3], [0.2, 1.0]],
        [[1.0, 1.2], [1.2, 1.0]],
    ], ids=["nan", "inf", "asymmetric", "above-one"])
    def test_malformed_chi_rejected(self, chi):
        with pytest.raises(ValidationError):
            independence_pattern_check(np.array(chi), np.eye(2, dtype=int))


class TestChiCliques:
    def test_two_maximum_cliques(self):
        assert maximum_chi_cliques(CHI_TWO_CLIQUES) == [(1, 2), (1, 4)]

    def test_all_positive_gives_singletons(self):
        chi = np.full((3, 3), 0.4)
        np.fill_diagonal(chi, 1.0)
        assert maximum_chi_cliques(chi) == [(1,), (2,), (3,)]

    def test_chain_model_gives_singletons(self):
        chi = hom_chi(Dag(3, {(1, 2), (2, 3)}))
        assert maximum_chi_cliques(chi) == [(1,), (2,), (3,)]

    def test_initial_nodes_always_among_maximum_cliques(self, corpus):
        for entry in corpus[:250]:
            v0 = tuple(sorted(entry.dag.initial_nodes()))
            assert v0 in maximum_chi_cliques(entry.chi)

    def test_complement_graph_is_the_zero_pattern(self, corpus):
        # i and j (i != j) are adjacent iff chi(i, j) is zero; keys 1..d and
        # members are Python ints.
        for entry in corpus:
            d = entry.dag.d
            adjacency = chi_complement_graph(entry.chi)
            assert list(adjacency) == list(range(1, d + 1))
            for i, neighbours in adjacency.items():
                assert all(type(j) is int for j in neighbours)
                assert neighbours == {
                    j for j in range(1, d + 1) if j != i and entry.chi[i - 1, j - 1] == 0.0
                }

    def test_matches_subset_scan_oracle(self, corpus):
        chis = [entry.chi for entry in corpus] + [
            chi_of(random_weighted_model(d, density=density, seed_or_rng=seed, polytree=polytree))
            for d in (9, 10) for seed in (1, 2) for density in (0.15, 0.4)
            for polytree in (False, True)
        ]
        for chi in chis:
            d = chi.shape[0]
            assert maximum_chi_cliques(chi) == oracles.max_cliques(d, chi_complement_graph(chi))

    def test_matches_the_frozenset_bron_kerbosch(self, corpus):
        models = enumeration_models() + polytrees_40()
        models.append(random_weighted_model(50, alpha=1.0, seed_or_rng=2, polytree=True))
        chis = [entry.chi for entry in corpus] + [chi_of(m) for m in models]
        for chi in chis:
            expected = oracles.bron_kerbosch_cliques(chi_complement_graph(chi))
            assert maximum_chi_cliques(chi) == expected
        assert len(expected) == 21504  # the d = 50 polytree

    def test_ill_conditioned_band_is_an_error(self):
        # One zero rule for chi: every caller of it refuses the (0, ZERO_TOL) band.
        chi = np.array([[1.0, 1e-13], [1e-13, 1.0]])
        reach = np.eye(2, dtype=int)
        calls = [
            lambda: recover_from_reachability(chi, reach),
            lambda: ordering_from_initials(chi, [1]),
            lambda: recover_rmwm_from_initials(chi, [1]),
            lambda: initial_bijection(chi, [1], [2]),
            lambda: enumerate_all(chi),
            lambda: enumerate_all_rmwm(chi),
            lambda: rmwm_equivalence_constraints(chi, [1], [2], Dag(2, set())),
            lambda: independence_pattern_check(chi, reach),
            lambda: chi_complement_graph(chi),
            lambda: maximum_chi_cliques(chi),
            lambda: clique_initial_filter(chi, (1,)),
        ]
        for call in calls:
            with pytest.raises(IllConditionedError):
                call()


class TestFilterCut:
    """The enumerators' clique search drops only cliques the filter rejects."""

    @pytest.mark.parametrize("m", [0.0, 5e-10], ids=["nonnegative", "negative-zeros"])
    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    @pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
    def test_a_pair_within_delta_of_the_filter_edge_keeps_its_clique(self, m, tol, side):
        from maxlindag.taildep import _chi_cliques
        from maxlindag.tolerance import _filter_cut, _positive_mask

        # 2 <- 1 -> 3 beside a node 4 whose zero entries are -m, as low as
        # validate_tdm admits.  W = {1, 4} bounds chi(2, 3) by
        # min(chi(1, 2), chi(1, 3)) - m = 0.5 - m; put it half the cut's
        # slack delta = d m + 16 d^2 u above or below the filter's edge.
        chi = np.full((4, 4), -m)
        chi[:3, :3] = hom_chi(Dag(3, {(1, 2), (1, 3)}))
        chi[3, 3] = 1.0
        delta = 4 * m + 16 * 4**2 * 2.0**-53
        chi[1, 2] = chi[2, 1] = 0.5 - m - tol + side * delta / 2
        assert maximum_chi_cliques(chi) == [(1, 4), (2, 4), (3, 4)]
        assert clique_initial_filter(chi, (1, 4), tol) == (side > 0)
        cut = _filter_cut(validate_tdm(chi), tol)
        assert (1, 4) in _chi_cliques(chi, _positive_mask(chi), cut)

    def test_cuts_only_what_the_filter_rejects(self, corpus):
        from maxlindag.taildep import _chi_cliques
        from maxlindag.tolerance import _filter_cut, _positive_mask

        chis = [entry.chi for entry in corpus] + [chi_of(m) for m in polytrees_40()]
        cut_any = False
        for chi in chis:
            for tol in (1e-9, 1e-3):
                cliques = maximum_chi_cliques(chi)
                kept = _chi_cliques(chi, _positive_mask(chi), _filter_cut(chi, tol))
                assert set(kept) <= set(cliques) and kept == sorted(kept)
                passing = [w for w in cliques if clique_initial_filter(chi, w, tol)]
                assert [w for w in kept if clique_initial_filter(chi, w, tol)] == passing
                cut_any |= len(kept) < len(cliques)
        assert cut_any


class TestCliqueInitialFilter:
    def test_chain_middle_node_rejected(self):
        chi = hom_chi(Dag(3, {(1, 2), (2, 3)}))
        assert not clique_initial_filter(chi, (2,))
        assert clique_initial_filter(chi, (1,))
        assert clique_initial_filter(chi, (3,))

    def test_long_chain_keeps_only_the_ends(self):
        d = 10
        chi = hom_chi(Dag(d, {(v, v + 1) for v in range(1, d)}))
        passing = [w for w in maximum_chi_cliques(chi) if clique_initial_filter(chi, w)]
        assert passing == [(1,), (10,)]

    def test_single_node_vacuous(self):
        assert clique_initial_filter(np.array([[1.0]]), (1,))

    def test_true_initial_set_never_filtered(self, corpus):
        for entry in corpus[:200]:
            v0 = tuple(sorted(entry.dag.initial_nodes()))
            assert clique_initial_filter(entry.chi, v0)

    def test_non_clique_rejected(self):
        chi = hom_chi(Dag(3, {(1, 2), (2, 3)}))
        with pytest.raises(ValidationError):
            clique_initial_filter(chi, (1, 2))

    def test_tolerance_boundary(self):
        # 2 <- 1 -> 3: chi(2, 3) meets its bound min(chi(1, 2), chi(1, 3)) exactly.
        chi = hom_chi(Dag(3, {(1, 2), (1, 3)}))
        for gap, kept in ((0.5e-9, True), (2e-9, False)):
            lowered = chi.copy()
            lowered[1, 2] = lowered[2, 1] = chi[1, 2] - gap
            assert clique_initial_filter(lowered, (1,)) == kept
            assert oracles.clique_filter(lowered, (1,)) == kept

    def test_node_paired_with_itself_counts(self):
        # chi(3, 3) = 1 falls short of chi(1, 3) + chi(2, 3) = 1.2
        chi = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.6], [0.6, 0.6, 1.0]])
        assert not clique_initial_filter(chi, (1, 2))
        assert not oracles.clique_filter(chi, (1, 2))

    def test_agrees_with_pairwise_loop_on_every_maximum_clique(self, corpus):
        # d = 40 polytrees have cliques of 9 and more nodes, where numpy's
        # 1-d sum stops adding left to right
        chis = [entry.chi for entry in corpus[:200]]
        model = random_weighted_model(40, alpha=1.0, seed_or_rng=8, polytree=True)
        chis.append(tdm_from_std_mlcm(standardize(mlcm_from_weights(model), 1.0)))
        outcomes = set()
        for chi in chis:
            for clique in maximum_chi_cliques(chi):
                ours = clique_initial_filter(chi, clique)
                assert ours == oracles.clique_filter(chi, clique)
                outcomes.add(ours)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("block", [1, 40])
    def test_row_blocks_give_the_one_pass_verdict(self, monkeypatch, block):
        from maxlindag import taildep

        cases = []
        for d, seed in ((10, 1), (11, 2), (12, 3)):
            model = random_weighted_model(d, density=0.3, seed_or_rng=seed)
            chi = tdm_from_std_mlcm(standardize(mlcm_from_weights(model), 1.0))
            cases += [(chi, w, clique_initial_filter(chi, w)) for w in maximum_chi_cliques(chi)]
        assert {whole for *_, whole in cases} == {True, False}
        monkeypatch.setattr(taildep, "_MIN_SUM_BLOCK", block)
        blocks = []
        for chi, w, whole in cases:
            r = chi.shape[0] - len(w)
            blocks.append(-(-r // max(1, block // (r * len(w)))))
            assert clique_initial_filter(chi, w) == whole
        assert min(blocks) > 1

    def test_violation_in_a_later_block_is_found(self, monkeypatch):
        from maxlindag import taildep

        model = random_weighted_model(10, density=0.3, seed_or_rng=1)
        chi = tdm_from_std_mlcm(standardize(mlcm_from_weights(model), 1.0))
        w = (4, 5, 8, 9)
        assert w in maximum_chi_cliques(chi) and clique_initial_filter(chi, w)
        # Only the pair of the last two nodes outside W falls below its
        # bound; with one row per block it sits in the next-to-last block.
        p, q = 7, 10
        bound = sum(min(chi[k - 1, p - 1], chi[k - 1, q - 1]) for k in w)
        chi[p - 1, q - 1] = chi[q - 1, p - 1] = bound / 2
        assert not oracles.clique_filter(chi, w)
        outside = chi.shape[0] - len(w)
        monkeypatch.setattr(taildep, "_MIN_SUM_BLOCK", outside * len(w))  # one row per block
        assert not clique_initial_filter(chi, w)


class TestLambdaRepresentation:
    def test_chain_middle_node(self):
        dag = Dag(3, {(1, 2), (2, 3)})
        chi = hom_chi(dag)
        assert lambda_coefficients(dag, 2) == {1: 1.0}
        value = lambda_representation(dag, chi, 2, 3)
        assert value == pytest.approx(chi[1, 2] - chi[0, 2])
        assert value == pytest.approx(1 / 3)

    def test_three_strand_direct_predecessor_only(self):
        dag = three_strand_dag()
        chi = hom_chi(dag)
        coeffs = lambda_coefficients(dag, 36)
        assert coeffs == {35: 1.0, 2: 0.0, 1: 0.0}
        value = lambda_representation(dag, chi, 36, 66)
        assert value == pytest.approx(chi[35, 65] - chi[34, 65], abs=1e-12)

    def test_three_strand_inclusion_exclusion_pattern(self):
        dag = three_strand_dag()
        coeffs = lambda_coefficients(dag, 98)
        nonzero = {k: v for k, v in coeffs.items() if v != 0.0}
        assert nonzero == {34: 1.0, 66: 1.0, 97: 1.0, 35: -1.0, 2: -1.0}
        chi = hom_chi(dag)
        bbar = standardize(mlcm_from_weights(homogeneous_model(dag, 1.0)), 1.0)
        value = lambda_representation(dag, chi, 98, 99)
        assert value == pytest.approx(bbar[97, 98], abs=1e-12)

    def test_source_node_reduces_to_chi(self, rmwm_corpus):
        for entry in rmwm_corpus[:60]:
            for j in entry.dag.initial_nodes():
                for i in entry.dag.descendants(j):
                    assert lambda_representation(entry.dag, entry.chi, j, i) == (
                        pytest.approx(entry.chi[j - 1, i - 1], abs=1e-12)
                    )

    def test_reproduces_all_coefficients_on_max_weighted_models(self, rmwm_corpus):
        for entry in rmwm_corpus[:120]:
            for i in range(1, entry.dag.d + 1):
                for j in entry.dag.ancestors_closed(i):
                    value = lambda_representation(entry.dag, entry.chi, j, i)
                    assert value == pytest.approx(entry.bbar[j - 1, i - 1], abs=1e-9)

    def test_requires_ancestry(self):
        dag = Dag(3, {(1, 2), (2, 3)})
        with pytest.raises(ValidationError):
            lambda_representation(dag, hom_chi(dag), 3, 1)

    def test_zero_pattern_conjecture(self, rmwm_corpus):
        # lambda_jk = 0 exactly when some strict descendant of k among an(j)
        # covers the same reduction parents of j.
        for entry in rmwm_corpus[:80]:
            dag = entry.dag
            reduced = transitive_reduction(dag)
            for j in range(1, dag.d + 1):
                coeffs = lambda_coefficients(dag, j)
                pa_tr = reduced.parents(j)
                for k, value in coeffs.items():
                    if k in pa_tr:
                        assert value == 1.0
                        continue
                    de_k = dag.descendants(k) & dag.ancestors(j)
                    count_k = len(dag.descendants_closed(k) & pa_tr)
                    has_twin = any(
                        len(dag.descendants_closed(t) & pa_tr) == count_k for t in de_k
                    )
                    assert (value == 0.0) == has_twin


class TestMuRepresentation:
    def test_ancestor_pair_is_trivial(self):
        dag = Dag(3, {(1, 2), (2, 3)})
        chi = hom_chi(dag)
        rep = mu_representation(dag, chi, 3, 2)
        assert rep.coefficients[2] == 1.0
        assert all(v == 0.0 for k, v in rep.coefficients.items() if k != 2)
        assert rep.value == pytest.approx(chi[1, 2])

    def test_fork_single_common_ancestor(self):
        dag = Dag(3, {(3, 1), (3, 2)})
        chi = hom_chi(dag)
        rep = mu_representation(dag, chi, 1, 2)
        assert rep.lca == {3}
        assert rep.coefficients == {3: 1.0}
        assert rep.value == pytest.approx(min(chi[2, 0], chi[2, 1]))

    def test_three_strand_join_leaf_pair(self):
        dag = three_strand_join_dag()
        chi = hom_chi(dag)
        rep = mu_representation(dag, chi, 95, 96)
        assert rep.lca == {33}
        assert rep.value == pytest.approx(min(chi[32, 94], chi[32, 95]), abs=1e-12)
        assert rep.value == pytest.approx(chi[94, 95], abs=1e-12)

    def test_three_strand_join_inclusion_exclusion(self):
        dag = three_strand_join_dag()
        chi = hom_chi(dag)
        rep = mu_representation(dag, chi, 96, 97)
        nonzero = {k: v for k, v in rep.coefficients.items() if v != 0.0}
        assert nonzero == {33: 1.0, 64: 1.0, 94: 1.0, 34: -1.0, 2: -1.0}
        assert rep.lca == {33, 64, 94}
        assert rep.value == pytest.approx(chi[95, 96], abs=1e-12)

    def test_reproduces_chi_on_max_weighted_models(self, rmwm_corpus):
        for entry in rmwm_corpus[:120]:
            d = entry.dag.d
            for i in range(1, d + 1):
                for j in range(i, d + 1):
                    if not (entry.dag.ancestors_closed(i) & entry.dag.ancestors_closed(j)):
                        continue
                    rep = mu_representation(entry.dag, entry.chi, i, j)
                    assert rep.value == pytest.approx(entry.chi[i - 1, j - 1], abs=1e-9)

    def test_zero_pattern_conjecture(self, rmwm_corpus):
        for entry in rmwm_corpus[:60]:
            dag = entry.dag
            for i in range(1, dag.d + 1):
                for j in range(i + 1, dag.d + 1):
                    common = dag.ancestors_closed(i) & dag.ancestors_closed(j)
                    if not common:
                        continue
                    rep = mu_representation(dag, entry.chi, i, j)
                    for k, value in rep.coefficients.items():
                        if k in rep.lca:
                            assert value == 1.0
                            continue
                        de_k = dag.descendants(k) & common
                        count_k = len(dag.descendants_closed(k) & rep.lca)
                        has_twin = any(
                            len(dag.descendants_closed(t) & rep.lca) == count_k
                            for t in de_k
                        )
                        assert (value == 0.0) == has_twin

    def test_lowest_common_ancestors_chain(self):
        dag = Dag(3, {(1, 2), (2, 3)})
        assert lowest_common_ancestors(dag, 2, 3) == {2}
        assert lowest_common_ancestors(dag, 1, 3) == {1}


class TestDownSetCoefficients:
    def test_lambda_and_mu_equal_the_down_set_recursion(self, corpus):
        for entry in corpus[:300]:
            d, edges = entry.dag.d, set(entry.dag.edges)
            an = oracles.closed_ancestors(d, edges)
            for j in range(1, d + 1):
                assert lambda_coefficients(entry.dag, j) == oracles.down_set_coefficients(
                    d, edges, an[j] - {j}
                )
                for i in range(j, d + 1):
                    assert mu_coefficients(entry.dag, i, j) == oracles.down_set_coefficients(
                        d, edges, an[i] & an[j]
                    )


class TestInitialNodeStructure:
    def test_distinct_initial_nodes_have_zero_dependence(self, corpus):
        for entry in corpus[:200]:
            v0 = sorted(entry.dag.initial_nodes())
            for a in v0:
                for b in v0:
                    if a < b:
                        assert entry.chi[a - 1, b - 1] == 0.0

    def test_initial_row_of_chi_equals_the_coefficient_row(self, corpus):
        # for a source node j, chi(j, i) is exactly bbar_ji
        for entry in corpus[:200]:
            for j in entry.dag.initial_nodes():
                np.testing.assert_allclose(
                    entry.chi[j - 1], entry.bbar[j - 1], atol=1e-12
                )

    def test_positive_entries_of_initial_rows_locate_descendants(self, corpus):
        for entry in corpus[:200]:
            for j in entry.dag.initial_nodes():
                located = {k for k in range(1, entry.dag.d + 1) if entry.chi[j - 1, k - 1] > 0}
                assert located == set(entry.dag.descendants_closed(j))

    def test_initial_ancestry_readable_from_chi(self, corpus):
        for entry in corpus[:200]:
            v0 = entry.dag.initial_nodes()
            for i in range(1, entry.dag.d + 1):
                from_chi = {k for k in v0 if entry.chi[k - 1, i - 1] > 0}
                assert from_chi == (entry.dag.ancestors_closed(i) & v0)


class TestMaxWeightedChiStructure:
    def test_path_products_compose_along_any_path(self, rmwm_corpus):
        import oracles as _oracles

        for entry in rmwm_corpus[:80]:
            chi = entry.chi
            edges = set(entry.dag.edges)
            for i in range(1, entry.dag.d + 1):
                for j in entry.dag.ancestors(i):
                    for path in _oracles.all_paths(edges, j, i):
                        product = 1.0
                        for a, b in zip(path, path[1:]):
                            product *= chi[a - 1, b - 1]
                        assert product == pytest.approx(chi[j - 1, i - 1], abs=1e-9)

    def test_ancestry_recoverable_from_products_with_initial_rows(self, rmwm_corpus):
        # k is an ancestor of i exactly when chi(j,i) = chi(j,k) * chi(k,i)
        # for every initial node j below both, with at least one such j
        for entry in rmwm_corpus[:80]:
            dag, chi = entry.dag, entry.chi
            v0 = dag.initial_nodes()
            for k in range(1, dag.d + 1):
                for i in range(1, dag.d + 1):
                    witnesses = dag.ancestors_closed(i) & dag.ancestors_closed(k) & v0
                    holds = bool(witnesses) and all(
                        abs(chi[j - 1, i - 1] - chi[j - 1, k - 1] * chi[k - 1, i - 1])
                        <= 1e-9
                        for j in witnesses
                    )
                    assert holds == (k in dag.ancestors_closed(i))


def large_tdm_cases() -> list[tuple[Dag, np.ndarray]]:
    """(DAG, chi) of every kind at d = 40 and 48, from a fixed seed."""
    model_rng = np.random.default_rng(56)
    cases = []
    for d in (40, 48):
        for kind in ("general", "polytree", "homogeneous"):
            model = random_weighted_model(
                d, 0.15, (0.5, 2.0), 1.0, model_rng,
                polytree=kind == "polytree", homogeneous=kind == "homogeneous",
            )
            bbar = standardize(mlcm_from_weights(model), 1.0)
            cases.append((model.dag, tdm_from_std_mlcm(bbar)))
    return cases


LARGE_TDM_CASES = large_tdm_cases()


class TestCheckRmwmTdm:
    def test_accepts_on_the_right_dag_and_recovers_bbar(self):
        result = check_rmwm_tdm(TWO_CLIQUES_MW_DAG, CHI_TWO_CLIQUES)
        assert result.ok
        np.testing.assert_allclose(result.diag, [1.0, 1.0, 0.2, 0.5], atol=1e-12)
        np.testing.assert_allclose(result.std_mlcm, BBAR_TWO_CLIQUES_MW, atol=1e-12)

    def test_rejects_on_the_alternative_dag(self):
        result = check_rmwm_tdm(TWO_CLIQUES_ALT_DAG, CHI_TWO_CLIQUES)
        assert not result.ok
        assert any("0.6" in f for f in result.failures)

    def test_round_trip_on_max_weighted_corpus(self, rmwm_corpus):
        for entry in rmwm_corpus[:150]:
            result = check_rmwm_tdm(entry.dag, entry.chi)
            assert result.ok, result.failures
            np.testing.assert_allclose(result.std_mlcm, entry.bbar, atol=1e-9)

    def test_single_entry_perturbation_rejected(self):
        chi = CHI_TWO_CLIQUES.copy()
        chi[2, 3] = chi[3, 2] = 0.55
        assert not check_rmwm_tdm(TWO_CLIQUES_MW_DAG, chi).ok

    def test_tiny_perturbation_still_accepted(self):
        chi = CHI_TWO_CLIQUES.copy()
        chi[2, 3] = chi[3, 2] = 0.5 + 1e-10
        assert check_rmwm_tdm(TWO_CLIQUES_MW_DAG, chi).ok

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("dag, entry, kind", [
        (Dag(3, {(1, 2), (2, 3)}), (0, 2), "(c)"),  # chi(1, 3) = chi(1, 2) * chi(2, 3)
        (Dag(3, {(1, 2), (1, 3)}), (1, 2), "(d)"),  # chi(2, 3) = min(bbar_12, bbar_13)
    ], ids=["c", "d"])
    def test_tolerance_boundary(self, tol, dag, entry, kind):
        chi = hom_chi(dag)
        for gap, kept in ((0.5 * tol, True), (2 * tol, False)):
            moved = chi.copy()
            moved[entry] = moved[entry[::-1]] = chi[entry] + gap
            result = check_rmwm_tdm(dag, moved, tol)
            assert result.ok == kept
            assert [f[:3] for f in result.failures] == ([] if kept else [kind])

    def test_zero_pattern_tolerance_boundary(self):
        # Condition (a) calls chi zero up to tol, not up to ZERO_TOL.
        for value, kept in ((0.5e-9, True), (2e-9, False)):
            chi = np.array([[1.0, value], [value, 1.0]])
            result = check_rmwm_tdm(Dag(2), chi)
            assert result.ok == kept
            assert [f[:3] for f in result.failures] == ([] if kept else ["(a)"])

    def test_asymmetric_input_is_an_error(self):
        chi = CHI_TWO_CLIQUES.copy()
        chi[0, 2] = 0.3
        with pytest.raises(ValidationError):
            check_rmwm_tdm(TWO_CLIQUES_MW_DAG, chi)

    def test_agrees_with_condition_oracle(self, rmwm_corpus):
        rng = np.random.default_rng(55)
        cases = [(entry.dag, entry.chi) for entry in rmwm_corpus[:40]] + LARGE_TDM_CASES
        for dag, entry_chi in cases:
            edges = set(dag.edges)
            ok = bool(check_rmwm_tdm(dag, entry_chi))
            assert ok == oracles.chartdm_conditions(dag.d, edges, entry_chi)
            if dag.d < 2:
                continue
            chi = entry_chi.copy()
            i, j = sorted(rng.choice(dag.d, size=2, replace=False))
            delta = 0.05 if rng.random() < 0.5 else -0.05
            chi[i, j] = chi[j, i] = float(np.clip(chi[i, j] + delta, 0.0, 1.0))
            assert bool(check_rmwm_tdm(dag, chi)) == oracles.chartdm_conditions(
                dag.d, edges, chi
            )

    @pytest.mark.parametrize("case", range(len(LARGE_TDM_CASES)))
    def test_diagonal_and_matrix_equal_the_topological_recursion(self, case):
        dag, chi = LARGE_TDM_CASES[case]
        reach = reachability_matrix(dag).astype(bool)
        diag = oracles.rmwm_diagonal(chi, dag.topological_order(), reach)
        result = check_rmwm_tdm(dag, chi)
        assert np.array_equal(result.diag, diag)
        bad = [i + 1 for i in range(dag.d) if diag[i] <= 0.0]
        expected = [f"(b) nonpositive diagonal at nodes {bad}"] if bad else []
        assert [f for f in result.failures if f.startswith("(b)")] == expected
        if result.ok:
            strict = reach & ~np.eye(dag.d, dtype=bool)
            bbar = np.where(strict, diag[:, None] * chi, 0.0) + np.diag(diag)
            assert np.array_equal(result.std_mlcm, bbar)

    @pytest.mark.parametrize("case", range(len(LARGE_TDM_CASES)))
    def test_pair_failures_sum_every_row_in_row_order(self, case):
        # Condition (d) takes the min-sum over the columns of its pairs only;
        # each combination must still be the row-order sum over all nodes.
        dag, chi = LARGE_TDM_CASES[case]
        chi = chi.copy()
        reach = reachability_matrix(dag).astype(bool)
        common = (reach.T.astype(int) @ reach.astype(int)) > 0
        pairs = [(i, j) for i, j in zip(*np.nonzero(common & ~reach & ~reach.T)) if i < j]
        rng = np.random.default_rng(case)
        for n in rng.choice(len(pairs), size=min(5, len(pairs)), replace=False):
            i, j = pairs[n]
            chi[i, j] = chi[j, i] = chi[i, j] + (0.05 if chi[i, j] < 0.5 else -0.05)
        result = check_rmwm_tdm(dag, chi)
        strict = reach & ~np.eye(dag.d, dtype=bool)
        bbar = np.where(strict, result.diag[:, None] * chi, 0.0) + np.diag(result.diag)
        expected = []
        for i, j in pairs:
            combination = 0.0
            for k in range(dag.d):
                combination += min(bbar[k, i], bbar[k, j])
            if abs(chi[i, j] - combination) > 1e-9 * max(chi[i, j], combination, 1.0):
                expected.append(
                    f"(d) pair ({i + 1},{j + 1}): chi={float(chi[i, j])} vs "
                    f"combination={combination}"
                )
        assert bool(expected) == bool(pairs)
        assert [f for f in result.failures if f.startswith("(d)")] == expected

    def test_failures_listed_in_ascending_order(self):
        # 2 -> 3 <- 9 and 3 -> 10: lowering chi(3, 10) breaks the chain
        # conditions (2, 3, 10) and (9, 3, 10) and nothing else of (c).
        dag = Dag(10, {(2, 3), (9, 3), (3, 10)})
        chi = hom_chi(dag)
        chi[2, 9] = chi[9, 2] = chi[2, 9] - 0.1
        chains = [f for f in check_rmwm_tdm(dag, chi).failures if f.startswith("(c)")]
        assert [f.split(":")[0] for f in chains] == ["(c) chain (2,3,10)", "(c) chain (9,3,10)"]


class TestMessages:
    def test_no_numpy_scalar_reprs(self):
        chain_chi = hom_chi(Dag(3, {(1, 2), (2, 3)}))
        chain_chi[0, 2] = chain_chi[2, 0] = 0.3  # breaks (c): 1/3 = chi(1,2) * chi(2,3)
        fork_chi = hom_chi(Dag(3, {(1, 2), (1, 3)}))
        fork_chi[1, 2] = fork_chi[2, 1] = 0.55  # breaks (d): 0.5 via node 1
        raising = [
            lambda: validate_tdm(np.array([[1.0, 1e-7], [0.0, 1.0]])),
            lambda: validate_tdm(np.array([[0.9, 0.2], [0.2, 1.0]])),
            lambda: validate_tdm(np.array([[1.0, 1.2], [1.2, 1.0]])),
            lambda: tdm_from_std_mlcm(np.array([[1.0, 0.5], [0.0, 0.6]])),
            lambda: maximum_chi_cliques(np.array([[1.0, 1e-13], [1e-13, 1.0]])),
            lambda: recover_from_ordering(
                np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]]), (1, 2, 3)
            ),
            lambda: recover_from_ordering(np.ones((2, 2)), (1, 2)),
            lambda: Dag(np.int64(0), set()),
            lambda: Dag(3, [(np.int64(5), 1)]),
            lambda: Dag(3, [tuple(np.arange(1, 4))]),
            lambda: random_weighted_model(3, seed_or_rng=np.int64(-2)),
            lambda: random_weighted_model(3, weight_range=(np.float64(2.0), np.float64(0.5))),
            lambda: limit_cdf(random_weighted_model(3), (np.float64(1.0), True), i=1, j=2),
            lambda: limit_cdf(random_weighted_model(3), (np.float64(1.0), np.float64(2.0)), i=1),
        ]
        messages = []
        for call in raising:
            with pytest.raises((ValidationError, IllConditionedError, NotRealizableError)) as exc:
                call()
            messages.append(str(exc.value))
        for dag, chi, kind in [
            (Dag(3, {(1, 2), (2, 3)}), chain_chi, "(c)"),
            (Dag(3, {(1, 2), (1, 3)}), fork_chi, "(d)"),
        ]:
            failures = check_rmwm_tdm(dag, chi).failures
            assert any(f.startswith(kind) for f in failures)
            messages.extend(failures)
        assert messages[0] == "matrix is asymmetric at entry (1,2): 1e-07 vs 0.0"
        assert messages[8:14] == [
            "node 5 is not an integer in 1..3",
            "edge (1, 2, 3) is not a pair of nodes",
            "seed must be a non-negative integer, got -2",
            "weight range must satisfy 0 < lo <= hi < inf, got (2.0, 0.5)",
            "evaluation point must be real numbers, got (1.0, True)",
            "evaluation point (1.0, 2.0) needs one value per evaluated node, 1, got 2",
        ]
        assert not [m for m in messages if "np.float64(" in m or "np.int64(" in m]


class TestEmptyMatrixRejected:
    @pytest.mark.parametrize("call", [
        is_mlcm,
        is_rmwm_mlcm,
        minimum_ml_dag,
        lambda m: standardize(m, 1.0),
        tdm_from_std_mlcm,
        validate_tdm,
        maximum_chi_cliques,
        enumerate_all,
        lambda m: recover_from_reachability(m, m),
        lambda m: recover_from_ordering(m, ()),
    ], ids=[
        "is_mlcm", "is_rmwm_mlcm", "minimum_ml_dag", "standardize", "tdm_from_std_mlcm",
        "validate_tdm", "maximum_chi_cliques", "enumerate_all", "recover_from_reachability",
        "recover_from_ordering",
    ])
    def test_zero_by_zero(self, call):
        with pytest.raises(ValidationError, match=r"nonempty, got shape \(0, 0\)"):
            call(np.zeros((0, 0)))
