import warnings

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
    NoiseSpec,
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
    random_dag,
    random_polytree,
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
        for bad in (0.0, -1.0, np.nan, np.inf, True, "1"):
            with pytest.raises(ValidationError, match="edge weights must be finite and strictly"):
                WeightedModel(dag, {(1, 2): bad}, (1.0, 1.0), 1.0)
            with pytest.raises(ValidationError, match="noise scales must be finite and strictly"):
                WeightedModel(dag, {(1, 2): 1.0}, (1.0, bad), 1.0)
            with pytest.raises(ValidationError, match=r"weight range \(0 < lo <= hi < inf\)"):
                random_weighted_model(3, weight_range=(0.5, bad), seed_or_rng=1)
        # The range is a pair with lo <= hi.  ("0.5", "2") was once taken as
        # numbers and (0.5,) raised an unpacking ValueError.
        for bad in ((0.5,), (0.5, 1.0, 2.0), 0.5, (2.0, 0.5)):
            with pytest.raises(ValidationError, match="weight range must satisfy 0 < lo <= hi"):
                random_weighted_model(3, weight_range=bad, seed_or_rng=1)

    def test_one_noise_scale_per_node(self):
        with pytest.raises(ValidationError) as exc:
            WeightedModel(Dag(3), {}, (1.0, 1.0), 1.0)
        assert str(exc.value) == "expected 3 noise scales, got 2"

    def test_alpha_must_be_finite_positive(self):
        dag = Dag(1)
        with pytest.raises(ValidationError):
            WeightedModel(dag, {}, (1.0,), 0.0)
        with pytest.raises(ValidationError):
            WeightedModel(dag, {}, (1.0,), float("inf"))


def _tail_index_calls(alpha):
    dag = Dag(3, {(1, 2), (2, 3)})
    b = np.array([[1.0, 0.5, 0.25], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
    return [
        lambda: WeightedModel(dag, {(1, 2): 0.5, (2, 3): 0.5}, (1.0, 1.0, 1.0), alpha),
        lambda: NoiseSpec("pareto", alpha),
        lambda: standardize(b, alpha),
        lambda: destandardize(b, 1.0, alpha),
        lambda: homogeneous_model(dag, alpha),
        lambda: random_weighted_model(3, alpha=alpha, seed_or_rng=1),
    ]


@pytest.mark.parametrize("alpha", ["2", True, 0, -1.0, np.nan, np.inf])
def test_every_tail_index_takes_one_rule(alpha):
    for call in _tail_index_calls(alpha):
        with pytest.raises(ValidationError, match="tail index must be finite and positive, got"):
            call()


@pytest.mark.parametrize("alpha", [np.float64(2.0), 2])
def test_a_real_tail_index_is_taken_as_a_float(alpha):
    for call, reference in zip(_tail_index_calls(alpha), _tail_index_calls(2.0)):
        got, expected = call(), reference()
        if isinstance(got, np.ndarray):
            assert got.tobytes() == expected.tobytes()
        else:
            assert got == expected and type(got.alpha) is float


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


    @pytest.mark.parametrize("model, shown", [(None, "NoneType"), (Dag(2), "Dag")])
    def test_a_model_of_another_type_is_rejected(self, model, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                mlcm_from_weights(model)
        assert str(exc.value) == f"model must be a WeightedModel, got {shown}"


class TestModelBuildingBits:
    """Model building gives the bits of one draw per weight and one maximum per edge."""

    SIZES = [(1, 0.5), (2, 1.0), (5, 0.0), (5, 0.3), (12, 1.0), (40, 0.3)]

    @pytest.mark.parametrize("weight_range", [(0.5, 2.0), (1e-3, 1e3), (1.0, 1.0)])
    @pytest.mark.parametrize("kind", ["general", "polytree", "homogeneous"])
    def test_equal_to_the_per_weight_and_per_edge_references(self, kind, weight_range):
        for seed in range(20):
            for d, density in self.SIZES:
                rng = np.random.default_rng(seed)
                model = random_weighted_model(d, density, weight_range, 1.5, rng,
                                              polytree=kind == "polytree",
                                              homogeneous=kind == "homogeneous")
                ref = np.random.default_rng(seed)
                dag = random_polytree(d, ref) if kind == "polytree" else random_dag(d, density, ref)
                assert model.dag == dag
                edges = set(dag.edges)
                if kind == "homogeneous":
                    an = oracles.closed_ancestors(d, edges)
                    weights = {(k, i): (len(an[k]) / len(an[i])) ** (1 / 1.5) for k, i in edges}
                    scales = tuple(len(an[i]) ** (-1 / 1.5) for i in range(1, d + 1))
                else:
                    weights, scales = oracles.log_uniform_weights(d, edges, *weight_range, ref)
                assert model.edge_weights == weights and model.noise_scales == scales
                assert rng.random() == ref.random()  # the generator's next draw
                b = mlcm_from_weights(model)
                assert b.flags.c_contiguous
                assert b.tobytes() == oracles.mlcm_by_edges(d, edges, weights, scales).tobytes()


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

    def test_sign_pattern_rejects_a_negative_matrix(self):
        with pytest.raises(ValidationError) as exc:
            sign_pattern(-np.eye(2))
        assert str(exc.value) == "coefficient matrix has negative entries"

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
        for bad in (0.0, -1.0, np.nan, np.inf, True, "1"):
            for betas in ((1.0, bad), bad):
                with pytest.raises(ValidationError, match="column scalings must be finite"):
                    destandardize(np.eye(2), betas, 1.0)
        # One scaling or one per column; three once raised numpy's broadcast error.
        for betas in ((1.0, 2.0, 3.0), ()):
            with pytest.raises(ValidationError, match=r"expected 1 or 2 column scalings, got \d"):
                destandardize(np.eye(2), betas, 1.0)

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

    def test_middle_node_must_be_a_strict_ancestor_of_the_last(self):
        b = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValidationError) as exc:
            max_weighted_triple(b, 1, 2, 3)
        assert str(exc.value) == "node 2 is not a strict ancestor of 3"

    @pytest.mark.parametrize("b_kk", [-1.0, 0.0])
    def test_middle_diagonal_must_be_positive(self, b_kk):
        b = np.array([[1.0, 1.0, 1.0], [0.0, b_kk, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValidationError, match="nonnegative with positive diagonal"):
            max_weighted_triple(b, 1, 2, 3)


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


def same_bits(got, want) -> bool:
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestThroughKernel:
    @pytest.mark.parametrize("block", [1, 300])
    def test_chunks_of_intermediate_nodes_bit_equal_to_one_pass(self, monkeypatch, block):
        from maxlindag import mlcm

        model = random_weighted_model(10, density=0.5, seed_or_rng=3)
        bbar = standardize(mlcm_from_weights(model), 1.0)
        monkeypatch.setattr(mlcm, "_THROUGH_BLOCK", bbar.size * bbar.shape[0])
        whole = mlcm._through(bbar)
        assert np.isfinite(whole[0]).any()
        # 10 and 3 chunks of intermediate nodes, in a topological order
        monkeypatch.setattr(mlcm, "_THROUGH_BLOCK", block)
        for one, blocked in zip(whole, mlcm._through(bbar)):
            assert one.tobytes() == blocked.tobytes()

    @pytest.mark.parametrize("block", [None, 1, 300])
    def test_corpus_equals_the_triple_loop(self, monkeypatch, corpus, block):
        from maxlindag import mlcm

        if block is not None:  # the chunked, reordered path at d <= 8
            monkeypatch.setattr(mlcm, "_THROUGH_BLOCK", block)
        for entry in corpus:
            assert same_bits(mlcm._through(entry.bbar), oracles.through_values(entry.bbar))

    @pytest.mark.parametrize("name,bbar", LARGE_BBARS, ids=[n for n, _ in LARGE_BBARS])
    def test_large_matrices_equal_the_triple_loop(self, name, bbar):
        from maxlindag import mlcm

        assert same_bits(mlcm._through(bbar), oracles.through_values(bbar))

    def test_a_relabelled_matrix_equals_the_triple_loop(self):
        from maxlindag import mlcm

        bbar = dict(LARGE_BBARS)["general-60"]
        order = np.random.default_rng(7).permutation(60)
        relabelled = bbar[np.ix_(order, order)]
        assert not (np.triu(relabelled) == relabelled).all()  # not in a topological order
        assert 60**3 > mlcm._THROUGH_BLOCK  # so the kernel reorders it
        through = mlcm._through(relabelled)
        assert same_bits(through, oracles.through_values(relabelled))
        assert same_bits(through, [m[np.ix_(order, order)] for m in mlcm._through(bbar)])


class TestOutsideTheNormalRange:
    UNIT = np.triu(np.ones((3, 3)))
    # b_12 * b_23 = 1e-320 is subnormal, and the division by b_22 = 1e-20
    # lifts it back to about 1e-300: only the product leaves the range.
    RESCUED = np.array([[1.0, 1e-160, 1e-290], [0.0, 1e-20, 1e-160], [0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("check", [is_mlcm, is_rmwm_mlcm, minimum_ml_dag])
    @pytest.mark.parametrize("b", [1e200 * UNIT, 1e-200 * UNIT, RESCUED],
                             ids=["overflow", "underflow", "product-underflow"])
    def test_each_check_raises_naming_the_pair(self, check, b):
        with pytest.raises(IllConditionedError, match=r"pair \(1,3\) leaves the normal range"):
            check(b)

    @pytest.mark.parametrize("b", [1e200 * UNIT, 1e-200 * UNIT, RESCUED],
                             ids=["overflow", "underflow", "product-underflow"])
    def test_the_triple_check_raises_naming_the_triple(self, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError,
                               match=r"triple \(1,2,3\) leaves the normal range"):
                max_weighted_triple(b, 1, 2, 3)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_products_in_range_keep_the_verdicts_to_the_bit(self, scale):
        for check in (is_mlcm, is_rmwm_mlcm):
            assert check(scale * self.UNIT) == check(self.UNIT)
        assert minimum_ml_dag(scale * self.UNIT) == minimum_ml_dag(self.UNIT)
        assert max_weighted_triple(scale * self.UNIT, 1, 2, 3) == \
            max_weighted_triple(self.UNIT, 1, 2, 3)

    def test_an_unchained_underflow_is_no_error(self):
        from maxlindag import mlcm

        # Node 4 is on no chain; its 1e-300 squares to zero in the kernel.
        b = np.eye(4)
        b[:3, :3] = BBAR_TRIANGLE_VALID
        b[3, 3] = 1e-300
        assert same_bits(mlcm._through(b), oracles.through_values(b))
        assert is_mlcm(b).ok


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Counts of through-kernel passes, and of support gates wherever they run."""
    from maxlindag import graph, identify, mlcm

    calls = {"through": 0, "reach": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(mlcm, "_through", counted("through", mlcm._through))
    gate = counted("reach", graph.is_reachability_matrix)
    for module in (graph, mlcm, identify):
        monkeypatch.setattr(module, "is_reachability_matrix", gate)
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

        candidates = []  # (gates, kernel passes, accepted) per _rmwm_model call
        original = identify._rmwm_model

        def candidate(*args):
            gates, passes = kernel_calls["reach"], kernel_calls["through"]
            model = original(*args)
            candidates.append((kernel_calls["reach"] - gates,
                               kernel_calls["through"] - passes, model is not None))
            return model

        monkeypatch.setattr(identify, "_rmwm_model", candidate)
        accepted = 0
        for entry in corpus[:60]:
            candidates.clear()
            models = enumerate_all_rmwm(entry.chi)
            assert len(models) == sum(ok for _, _, ok in candidates)
            for gates, passes, ok in candidates:
                # The recovery's gate only, reached once the rows settle;
                # one kernel pass for a candidate that reproduces chi.
                assert passes <= gates <= 1
                assert not ok or gates == passes == 1
            accepted += len(models)
        assert accepted > 0

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
            kernel_calls.update(through=0, reach=0)
            leaf_passes.clear()
            models = enumerate_all(entry.chi)
            assert set(leaf_passes) <= {0, 1}
            # The leaf's gate is the only one: an accepted leaf gets no second.
            assert kernel_calls["reach"] == len(leaf_passes)
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
