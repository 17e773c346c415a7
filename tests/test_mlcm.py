import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cases import (
    BBAR_DENSE4_DIRECT,
    BBAR_DENSE4_THROUGH,
    BBAR_TRIANGLE_INVALID,
    BBAR_TRIANGLE_VALID,
    DENSE4_EDGES,
    large_models,
)
from maxlindag import (
    Dag,
    IllConditionedError,
    ValidationError,
    WeightedModel,
    destandardize,
    homogeneous_model,
    is_mlcm,
    is_rmwm_mlcm,
    max_weighted_triple,
    minimum_ml_dag,
    mlcm_from_weights,
    model_from_std_mlcm,
    random_weighted_model,
    sign_pattern,
    standardize,
    tdm_from_std_mlcm,
    transitive_reduction,
)


class TestWeightedModelValidation:
    def test_weight_keys_must_match_edges(self):
        dag = Dag(2, {(1, 2)})
        with pytest.raises(ValidationError):
            WeightedModel(dag, {}, (1.0, 1.0), 1.0)

    def test_weights_must_be_positive(self):
        dag = Dag(2, {(1, 2)})
        with pytest.raises(ValidationError):
            WeightedModel(dag, {(1, 2): 0.0}, (1.0, 1.0), 1.0)
        with pytest.raises(ValidationError):
            WeightedModel(dag, {(1, 2): 1.0}, (1.0, -1.0), 1.0)

    def test_alpha_must_be_finite_positive(self):
        dag = Dag(1)
        with pytest.raises(ValidationError):
            WeightedModel(dag, {}, (1.0,), 0.0)
        with pytest.raises(ValidationError):
            WeightedModel(dag, {}, (1.0,), float("inf"))


class TestMlcmFromWeights:
    def test_single_edge_single_path(self):
        model = WeightedModel(Dag(2, {(1, 2)}), {(1, 2): 0.5}, (1.0, 1.0), 1.0)
        assert mlcm_from_weights(model).tolist() == [[1.0, 0.5], [0.0, 1.0]]

    def test_diamond_takes_the_heavier_route(self):
        dag = Dag(4, {(1, 2), (1, 3), (2, 4), (3, 4)})
        weights = {(1, 2): 1.0, (1, 3): 1.0, (2, 4): 2.0, (3, 4): 3.0}
        model = WeightedModel(dag, weights, (1.0, 1.0, 1.0, 1.0), 1.0)
        b = mlcm_from_weights(model)
        assert b[0, 3] == 3.0  # max(1*2, 1*3)

    def test_homogeneous_closed_form(self):
        dag = Dag(4, DENSE4_EDGES)
        alpha = 2.0
        b = mlcm_from_weights(homogeneous_model(dag, alpha))
        for i in range(1, 5):
            size = len(dag.ancestors_closed(i))
            for j in dag.ancestors_closed(i):
                assert b[j - 1, i - 1] == pytest.approx(size ** (-1 / alpha), rel=1e-12)

    def test_matches_path_enumeration_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            model = random_weighted_model(d, float(rng.uniform(0, 1)), (0.3, 3.0), 1.0, rng)
            expected = oracles.mlcm(
                d,
                set(model.dag.edges),
                dict(model.edge_weights),
                {i: model.noise_scales[i - 1] for i in range(1, d + 1)},
            )
            np.testing.assert_allclose(mlcm_from_weights(model), expected, rtol=1e-12)


class TestStandardize:
    def test_two_node_example(self):
        out = standardize(np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0)
        np.testing.assert_allclose(out, [[1.0, 1 / 3], [0.0, 2 / 3]])

    def test_normalized_matrix_is_a_fixed_point(self):
        bbar = np.array([[1.0, 0.25], [0.0, 0.75]])
        np.testing.assert_allclose(standardize(bbar, 1.0), bbar)

    def test_alpha_two_squares_then_normalizes(self):
        out = standardize(np.array([[1.0, 1.0], [0.0, 1.0]]), 2.0)
        np.testing.assert_allclose(out, [[1.0, 0.5], [0.0, 0.5]])

    def test_columns_sum_to_one(self, corpus):
        for entry in corpus[:120]:
            np.testing.assert_allclose(entry.bbar.sum(axis=0), 1.0, atol=1e-12)

    def test_sign_pattern_preserved(self, corpus):
        for entry in corpus[:120]:
            b = mlcm_from_weights(entry.model)
            assert np.array_equal(sign_pattern(b), sign_pattern(entry.bbar))
            assert np.array_equal(sign_pattern(b), entry.reach)

    def test_strict_row_dominance(self, corpus):
        for entry in corpus[:120]:
            bbar = entry.bbar
            d = bbar.shape[0]
            for j in range(d):
                for i in range(d):
                    if i != j:
                        assert bbar[j, j] > bbar[j, i]

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            standardize(np.array([[1.0, -0.1], [0.0, 1.0]]), 1.0)

    @pytest.mark.parametrize(
        "b,column",
        [
            ([[1.0, 1.0], [0.0, 1e-200]], 2),  # the powered diagonal underflows
            ([[1e-200, 1.0], [0.0, 1e-200]], 1),  # a whole column underflows
            ([[1e200, 1.0], [0.0, 1.0]], 1),  # a powered entry overflows
        ],
        ids=["zero-diagonal", "zero-column", "overflow"],
    )
    def test_column_lost_in_float64_raises(self, b, column):
        with pytest.raises(IllConditionedError, match=f"column {column} "):
            standardize(np.array(b), 2.0)


class TestDestandardize:
    def test_unit_scalings_alpha_one_is_identity(self):
        bbar = np.array([[1.0, 1 / 3], [0.0, 2 / 3]])
        np.testing.assert_allclose(destandardize(bbar, 1.0, 1.0), bbar)

    def test_componentwise_example(self):
        bbar = np.array([[1.0, 1 / 3], [0.0, 2 / 3]])
        out = destandardize(bbar, (1.0, 3.0), 1.0)
        np.testing.assert_allclose(out, [[1.0, 1.0], [0.0, 2.0]])

    def test_nonpositive_scaling_rejected(self):
        with pytest.raises(ValidationError):
            destandardize(np.eye(2), (1.0, 0.0), 1.0)

    @pytest.mark.parametrize(
        "bbar,column",
        [
            ([[1.0, 0.5], [0.0, 1e-200]], 2),  # the powered diagonal underflows
            ([[1.0, 0.0], [0.0, 1e200]], 2),  # a powered entry overflows
        ],
        ids=["zero-diagonal", "overflow"],
    )
    def test_column_lost_in_float64_raises(self, bbar, column):
        with pytest.raises(IllConditionedError, match=f"column {column} "):
            destandardize(np.array(bbar), 1.0, 0.5)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            destandardize(np.array([[1.0, -0.5], [0.0, 1.0]]), 1.0, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.floats(0.2, 4.0),
        st.lists(st.floats(0.1, 10.0), min_size=5, max_size=5),
    )
    def test_round_trip_property(self, seed, alpha_tilde, betas):
        model = random_weighted_model(5, 0.6, (0.5, 2.0), 1.0, seed)
        bbar = standardize(mlcm_from_weights(model), 1.0)
        rebuilt = standardize(destandardize(bbar, betas, alpha_tilde), alpha_tilde)
        np.testing.assert_allclose(rebuilt, bbar, atol=1e-9)


class TestMaxWeightedTriple:
    def test_route_through_middle_is_max_weighted(self):
        verdict = max_weighted_triple(BBAR_DENSE4_THROUGH, 2, 3, 4)
        assert verdict.ok and verdict.residual <= 1e-9

    def test_direct_edge_dominates(self):
        verdict = max_weighted_triple(BBAR_DENSE4_DIRECT, 2, 3, 4)
        assert not verdict.ok
        # 0.8 * 0.04 / 0.1 = 0.32 against 0.5
        assert verdict.residual == pytest.approx((0.5 - 0.32) / 0.5)

    def test_homogeneous_triples_always_max_weighted(self):
        dag = Dag(4, DENSE4_EDGES)
        bbar = standardize(mlcm_from_weights(homogeneous_model(dag, 1.0)), 1.0)
        for j, k, i in [(1, 3, 4), (2, 3, 4)]:
            assert max_weighted_triple(bbar, j, k, i).ok

    def test_product_never_exceeds_direct_coefficient(self, corpus):
        for entry in corpus[:150]:
            bbar = entry.bbar
            d = bbar.shape[0]
            for i in range(1, d + 1):
                for k in entry.dag.ancestors(i):
                    for j in entry.dag.ancestors(k):
                        bound = bbar[j - 1, k - 1] * bbar[k - 1, i - 1] / bbar[k - 1, k - 1]
                        assert bbar[j - 1, i - 1] >= bound - 1e-12

    def test_chain_precondition_enforced(self):
        with pytest.raises(ValidationError):
            max_weighted_triple(BBAR_DENSE4_THROUGH, 3, 2, 4)


class TestIsRmwmMlcm:
    def test_two_cliques_matrices(self):
        from cases import BBAR_TWO_CLIQUES_GENERAL, BBAR_TWO_CLIQUES_MW

        assert is_rmwm_mlcm(BBAR_TWO_CLIQUES_MW).ok
        verdict = is_rmwm_mlcm(BBAR_TWO_CLIQUES_GENERAL)
        assert not verdict.ok
        # triple (4,2,3): 0.5*0.1/0.5 = 0.1 against 0.5
        assert verdict.residual == pytest.approx((0.5 - 0.1) / 0.5)

    def test_identity_has_no_paths(self):
        assert is_rmwm_mlcm(np.eye(3)).ok

    def test_polytree_and_homogeneous_models_are_max_weighted(self, rmwm_corpus):
        for entry in rmwm_corpus[:160]:
            assert is_rmwm_mlcm(entry.bbar).ok

    def test_invalid_pattern_is_a_precondition_error(self):
        bad = np.array([[1.0, 0.5, 0.2], [0.0, 1.0, 0.0], [0.0, 0.5, 1.0]])
        # 3 reaches 2 and 1 reaches 2, but 1 does not reach ... pattern not closed
        bad_pattern = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        assert is_rmwm_mlcm(bad).ok in (True, False)  # closed pattern, no error
        with pytest.raises(ValidationError):
            is_rmwm_mlcm(bad_pattern)


class TestMinimumMlDag:
    def test_two_cliques_mw_dag(self):
        from cases import BBAR_TWO_CLIQUES_MW

        assert minimum_ml_dag(BBAR_TWO_CLIQUES_MW).edges == frozenset(
            {(1, 3), (2, 3), (2, 4)}
        )

    def test_homogeneous_redundant_edge_dropped(self):
        dag = Dag(3, {(1, 2), (2, 3), (1, 3)})
        bbar = standardize(mlcm_from_weights(homogeneous_model(dag, 1.0)), 1.0)
        assert minimum_ml_dag(bbar).edges == frozenset({(1, 2), (2, 3)})

    def test_dominating_direct_edge_kept(self):
        # 0.5 > 0.8 * 0.04 / 0.1 = 0.32, so 2->4 must stay
        assert (2, 4) in minimum_ml_dag(BBAR_DENSE4_DIRECT).edges

    def test_equals_transitive_reduction_for_max_weighted_models(self, rmwm_corpus):
        for entry in rmwm_corpus[:120]:
            assert minimum_ml_dag(entry.bbar) == transitive_reduction(entry.dag)

    def test_same_for_raw_and_standardized_matrix(self, corpus):
        for entry in corpus[:120]:
            raw = mlcm_from_weights(entry.model)
            assert minimum_ml_dag(raw) == minimum_ml_dag(entry.bbar)


def large_bbars() -> list[tuple[str, np.ndarray]]:
    """Standardized matrices of every kind at d = 12 .. 60, from a fixed seed."""
    return [(name, standardize(mlcm_from_weights(m), 1.0)) for name, m in large_models()]


def scaled_chained_entry(bbar: np.ndarray, factor: float) -> np.ndarray:
    """Copy with the first entry that has an intermediate node scaled by ``factor``."""
    pattern = bbar > 0
    d = bbar.shape[0]
    for j in range(d):
        for i in range(d):
            if j != i and pattern[j, i] and any(
                l not in (j, i) and pattern[j, l] and pattern[l, i] for l in range(d)
            ):
                out = bbar.copy()
                out[j, i] *= factor
                return out
    raise AssertionError("no chained entry")


LARGE_BBARS = large_bbars()
BOUNDARY_FACTORS = (1 + 0.5e-9, 1 - 0.5e-9, 1 + 2e-9, 1 - 2e-9)


class TestChecksAgainstTripleLoops:
    @pytest.mark.parametrize("name,bbar", LARGE_BBARS, ids=[n for n, _ in LARGE_BBARS])
    def test_minimum_ml_dag_same_edges(self, name, bbar):
        assert set(minimum_ml_dag(bbar).edges) == oracles.minimum_ml_dag_edges(bbar)

    @pytest.mark.parametrize("name,bbar", LARGE_BBARS, ids=[n for n, _ in LARGE_BBARS])
    def test_is_rmwm_mlcm_bit_equal_residual(self, name, bbar):
        verdict = is_rmwm_mlcm(bbar)
        worst = oracles.rmwm_worst_residual(bbar)
        assert verdict.residual.hex() == worst.hex()
        assert verdict.ok == (worst <= 1e-9)
        if not name.startswith("general"):
            assert verdict.ok

    @pytest.mark.parametrize("factor", BOUNDARY_FACTORS)
    @pytest.mark.parametrize("kind", ["polytree", "homogeneous"])
    def test_tolerance_boundary(self, kind, factor):
        bbar = dict(LARGE_BBARS)[f"{kind}-40"]
        scaled = scaled_chained_entry(bbar, factor)
        verdict = is_rmwm_mlcm(scaled)
        worst = oracles.rmwm_worst_residual(scaled)
        assert verdict.residual.hex() == worst.hex()
        assert verdict.ok == (abs(factor - 1) < 1e-9)
        assert set(minimum_ml_dag(scaled).edges) == oracles.minimum_ml_dag_edges(scaled)

    def test_boundary_decides_a_redundant_edge(self):
        # 1 -> 2 -> 3 plus 1 -> 3 with every path max-weighted: b_13 equals
        # the route through 2, so 1 -> 3 goes until it beats it by > 1e-9.
        dag = Dag(3, {(1, 2), (2, 3), (1, 3)})
        bbar = standardize(mlcm_from_weights(homogeneous_model(dag, 1.0)), 1.0)
        for factor in BOUNDARY_FACTORS:
            scaled = bbar.copy()
            scaled[0, 2] *= factor
            edges = set(minimum_ml_dag(scaled).edges)
            assert edges == oracles.minimum_ml_dag_edges(scaled)
            assert ((1, 3) in edges) == (factor > 1 + 1e-9)


class TestIsMlcm:
    def test_triangle_valid_matrix_accepted(self):
        assert is_mlcm(BBAR_TRIANGLE_VALID).ok

    def test_triangle_invalid_matrix_rejected_by_recomposition(self):
        verdict = is_mlcm(BBAR_TRIANGLE_INVALID)
        assert not verdict.ok
        assert verdict.reason == "recomposition"

    def test_bad_sign_pattern_reason(self):
        not_closed = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        verdict = is_mlcm(not_closed)
        assert not verdict.ok and verdict.reason == "sign_pattern"
        verdict = is_mlcm(np.array([[1.0, -0.1], [0.0, 1.0]]))
        assert not verdict.ok and verdict.reason == "sign_pattern"

    def test_every_standardized_model_matrix_accepted(self, corpus):
        for entry in corpus[:250]:
            assert is_mlcm(entry.bbar).ok

    def test_agrees_with_reconstruction_oracle(self, corpus):
        rng = np.random.default_rng(91)
        checked = 0
        for entry in corpus:
            if entry.bbar.shape[0] > 4:
                continue
            candidates = [entry.bbar]
            # systematic single-entry perturbations, valid and broken alike
            bbar = entry.bbar.copy()
            d = bbar.shape[0]
            for _ in range(4):
                i, j = int(rng.integers(0, d)), int(rng.integers(0, d))
                mutated = bbar.copy()
                mutated[i, j] = max(mutated[i, j] + float(rng.uniform(-0.2, 0.2)), 0.0)
                candidates.append(mutated)
            for candidate in candidates:
                ours = bool(is_mlcm(candidate))
                assert ours == oracles.is_mlcm_by_reconstruction(candidate)
                checked += 1
            if checked > 300:
                break
        assert checked > 100

    def test_non_square_raises(self):
        with pytest.raises(ValidationError):
            is_mlcm(np.ones((2, 3)))

    @pytest.mark.parametrize("check", [is_mlcm, is_rmwm_mlcm, minimum_ml_dag])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_raises(self, check, value):
        with pytest.raises(ValidationError, match="non-finite"):
            check(np.array([[1.0, value], [0.0, 1.0]]))


PERTURBATION_FACTORS = (0.5, 0.9, 1 + 1e-10, 1 + 1e-8, 1.1, 2.0)


def perturbed(corpus, factor: float) -> list[np.ndarray]:
    """Each corpus matrix with one seeded random positive entry scaled by ``factor``."""
    rng = np.random.default_rng(7021)
    out = []
    for entry in corpus:
        k, i = rng.choice(np.argwhere(entry.bbar > 0))
        bbar = entry.bbar.copy()
        bbar[k, i] *= factor
        out.append(bbar)
    return out


def same_as_recomposition(bbar: np.ndarray) -> None:
    verdict = is_mlcm(bbar)
    assert (verdict.ok, verdict.reason) == oracles.is_mlcm_by_recomposition(bbar)
    if verdict.reason != "sign_pattern":
        assert verdict.residual.hex() == oracles.mlcm_shortfall(bbar).hex()


class TestIsMlcmAgainstRecomposition:
    def test_corpus(self, corpus):
        for entry in corpus:
            same_as_recomposition(entry.bbar)

    @pytest.mark.parametrize("factor", PERTURBATION_FACTORS)
    def test_single_entry_perturbations(self, corpus, factor):
        verdicts = []
        for bbar in perturbed(corpus, factor):
            same_as_recomposition(bbar)
            verdicts.append(is_mlcm(bbar).ok)
        if factor != 1 + 1e-10:
            assert not all(verdicts)  # the perturbations break some matrices

    @pytest.mark.parametrize("name,bbar", LARGE_BBARS, ids=[n for n, _ in LARGE_BBARS])
    def test_large_matrices(self, name, bbar):
        same_as_recomposition(bbar)
        for factor in PERTURBATION_FACTORS:
            same_as_recomposition(scaled_chained_entry(bbar, factor))

    def test_no_shortfall_means_zero_residual(self):
        assert is_mlcm(np.eye(3)).residual == 0.0
        assert is_mlcm(BBAR_TRIANGLE_VALID).residual == 0.0


class TestThroughBlocks:
    @pytest.mark.parametrize("block", [1, 300])
    def test_row_blocks_bit_equal_to_one_pass(self, monkeypatch, block):
        from maxlindag import mlcm

        model = random_weighted_model(10, density=0.5, seed_or_rng=3)
        bbar = standardize(mlcm_from_weights(model), 1.0)
        monkeypatch.setattr(mlcm, "_THROUGH_BLOCK", bbar.size * bbar.shape[0])
        whole = mlcm._through(bbar)
        assert np.isfinite(whole[0]).any()
        monkeypatch.setattr(mlcm, "_THROUGH_BLOCK", block)  # 10 and 4 row blocks
        for one, blocked in zip(whole, mlcm._through(bbar)):
            assert one.tobytes() == blocked.tobytes()


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Counts of through-kernel passes and reachability checks in ``mlcm``."""
    from maxlindag import mlcm

    calls = {"through": 0, "reach": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(mlcm, "_through", counted("through", mlcm._through))
    monkeypatch.setattr(
        mlcm, "is_reachability_matrix", counted("reach", mlcm.is_reachability_matrix)
    )
    return calls


class TestOneAnalysisPerCheck:
    @pytest.mark.parametrize("check", [is_mlcm, is_rmwm_mlcm, minimum_ml_dag])
    @pytest.mark.parametrize("name,bbar", LARGE_BBARS[:3], ids=[n for n, _ in LARGE_BBARS[:3]])
    def test_one_kernel_pass_and_one_support_check(self, kernel_calls, check, name, bbar):
        check(bbar)
        assert kernel_calls == {"through": 1, "reach": 1}

    @pytest.mark.parametrize("name,bbar", LARGE_BBARS[:3], ids=[n for n, _ in LARGE_BBARS[:3]])
    def test_cli_check_rmwm_one_analysis(self, kernel_calls, tmp_path, name, bbar):
        from maxlindag.cli import main
        from maxlindag.io import write_matrix

        path = tmp_path / "bbar.csv"
        codes = []
        for matrix in (bbar, scaled_chained_entry(bbar, 0.5)):
            write_matrix(matrix, path)
            valid = is_mlcm(matrix).ok and is_rmwm_mlcm(matrix).ok
            kernel_calls.update(through=0, reach=0)
            codes.append(main(["check", "--rmwm", str(path)]))
            assert codes[-1] == (0 if valid else 1)
            assert kernel_calls == {"through": 1, "reach": 1}
        assert codes[1] == 1

    def test_sign_pattern_rejection_runs_no_kernel(self, kernel_calls):
        assert is_mlcm(np.array([[1.0, -0.1], [0.0, 1.0]])).reason == "sign_pattern"
        assert kernel_calls == {"through": 0, "reach": 0}
        not_closed = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        assert is_mlcm(not_closed).reason == "sign_pattern"
        assert kernel_calls == {"through": 0, "reach": 1}

    def test_enumerate_all_rmwm_one_analysis_per_candidate(
        self, kernel_calls, monkeypatch, corpus
    ):
        from maxlindag import enumerate_all_rmwm, identify

        candidates = []
        original = identify.recover_from_ordering

        def recover(*args):
            candidates.append(original(*args))
            return candidates[-1]

        monkeypatch.setattr(identify, "recover_from_ordering", recover)
        for entry in corpus[:60]:
            kernel_calls.update(through=0, reach=0)
            candidates.clear()
            models = enumerate_all_rmwm(entry.chi)
            assert kernel_calls["reach"] == len(candidates)
            assert len(models) <= kernel_calls["through"] <= len(candidates)

    def test_enumerate_all_one_pass_per_leaf_and_model(self, kernel_calls, monkeypatch, corpus):
        from maxlindag import enumerate_all, identify

        leaf_passes = []

        def leaf_check(bbar, tol):
            before = kernel_calls["through"]
            verdict = is_mlcm(bbar, tol)
            leaf_passes.append(kernel_calls["through"] - before)
            return verdict

        monkeypatch.setattr(identify, "is_mlcm", leaf_check)
        for entry in corpus[:40]:
            kernel_calls["through"] = 0
            leaf_passes.clear()
            models = enumerate_all(entry.chi)
            assert set(leaf_passes) <= {0, 1}
            assert kernel_calls["through"] == sum(leaf_passes) + len(models)


class TestHomogeneousModel:
    def test_chain_column_is_uniform(self):
        dag = Dag(3, {(1, 2), (2, 3)})
        bbar = standardize(mlcm_from_weights(homogeneous_model(dag, 1.0)), 1.0)
        np.testing.assert_allclose(bbar[:, 2], [1 / 3, 1 / 3, 1 / 3])

    def test_single_node(self):
        model = homogeneous_model(Dag(1), 1.7)
        assert model.noise_scales == (1.0,)

    def test_tdm_is_ancestor_overlap_ratio(self):
        dag = Dag(4, DENSE4_EDGES)
        model = homogeneous_model(dag, 2.0)
        chi = tdm_from_std_mlcm(standardize(mlcm_from_weights(model), 2.0))
        for i in range(1, 5):
            for j in range(1, 5):
                an_i = dag.ancestors_closed(i)
                an_j = dag.ancestors_closed(j)
                expected = len(an_i & an_j) / max(len(an_i), len(an_j))
                assert chi[i - 1, j - 1] == pytest.approx(expected, abs=1e-12)


class TestModelFromStdMlcm:
    def test_round_trip(self, corpus):
        for entry in corpus[:60]:
            rebuilt = model_from_std_mlcm(entry.bbar, entry.alpha)
            again = standardize(mlcm_from_weights(rebuilt), entry.alpha)
            np.testing.assert_allclose(again, entry.bbar, atol=1e-9)

    def test_rejects_invalid_matrix(self):
        with pytest.raises(ValidationError):
            model_from_std_mlcm(BBAR_TRIANGLE_INVALID, 1.0)
