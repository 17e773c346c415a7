import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from cases import BBAR_TWO_CLIQUES_MW
from maxlindag import (
    Dag,
    NoiseSpec,
    SampleBlock,
    TailSampleError,
    ValidationError,
    WeightedModel,
    empirical_tdm,
    homogeneous_model,
    limit_cdf,
    mlcm_from_weights,
    model_from_std_mlcm,
    random_weighted_model,
    sample,
    scaled_block_maxima,
    standardize,
    tdm_from_std_mlcm,
    unit_frechet_points,
)
from maxlindag.simulate import _ROWS, _STRIDE, _tail_quantile


def single_edge_model(b: float, alpha: float = 1.0) -> WeightedModel:
    bbar = np.array([[1.0, b], [0.0, 1.0 - b]])
    return model_from_std_mlcm(bbar, alpha)


class TestNoiseSpec:
    def test_families_normalized(self):
        assert NoiseSpec("Pareto", 1.0).family == "pareto"
        assert NoiseSpec("Fréchet", 2.0).family == "frechet"

    def test_unsupported_family(self):
        with pytest.raises(ValidationError):
            NoiseSpec("gumbel", 1.0)

    def test_bad_alpha(self):
        with pytest.raises(ValidationError):
            NoiseSpec("pareto", -1.0)


@pytest.mark.parametrize("seed", [-1, 2.5, "3", None, True])
def test_every_seeded_function_checks_its_seed(seed):
    model = single_edge_model(0.5)
    noise = NoiseSpec("frechet", 1.0)
    calls = [
        lambda: random_weighted_model(3, seed_or_rng=seed),
        lambda: sample(model, noise, 10, seed),
        lambda: scaled_block_maxima(model, noise, 4, 4, seed),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            call()


class TestSample:
    def test_deterministic_per_seed(self):
        model = single_edge_model(0.5)
        a = sample(model, NoiseSpec("frechet", 1.0), 500, seed=42)
        b = sample(model, NoiseSpec("frechet", 1.0), 500, seed=42)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample(model, NoiseSpec("frechet", 1.0), 500, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_shape_and_positivity(self):
        model = single_edge_model(0.3)
        block = sample(model, NoiseSpec("pareto", 1.0), 257, seed=1)
        assert block.values.shape == (257, 2)
        assert (block.values > 0).all()

    def test_pareto_noise_has_unit_lower_bound(self):
        dag = Dag(1)
        model = WeightedModel(dag, {}, (1.0,), 2.0)
        block = sample(model, NoiseSpec("pareto", 2.0), 4000, seed=5)
        assert block.values.min() >= 1.0

    def test_alpha_mismatch_rejected(self, monkeypatch):
        # Checked before any uniform is drawn.
        monkeypatch.setattr(np.random, "default_rng", None)
        model = single_edge_model(0.5, alpha=1.0)
        with pytest.raises(ValidationError, match="differs from model tail index"):
            sample(model, NoiseSpec("frechet", 2.0), 10, seed=0)

    def test_sample_size_validated(self):
        model = single_edge_model(0.5)
        with pytest.raises(ValidationError):
            sample(model, NoiseSpec("frechet", 1.0), 0, seed=0)


def kind_model(kind: str, d: int, alpha: float, seed: int) -> WeightedModel:
    return random_weighted_model(
        d, density=0.4, alpha=alpha, seed_or_rng=seed,
        polytree=kind == "polytree", homogeneous=kind == "homogeneous",
    )


def overflowing_model() -> WeightedModel:
    # At tail index 0.01 either family overflows float64 with probability
    # about 8e-4 per draw, so some of these 5 x 10 000 draws do
    return random_weighted_model(5, density=0.5, alpha=0.01, seed_or_rng=1)


def assert_block_maxima_match_reference(model, family, block_size, n_blocks, seed):
    """Scaled block maxima against per-draw samples: to rounding for Frechet
    noise, in law for Pareto noise.

    Frechet noise is max-stable, so the scaled block maximum made from the
    uniform v is what ``sample`` draws from the same v, up to rounding.  With
    eps = 2**-52 and numpy's pow and log within one ulp, w = v**(1/b) is off
    by at most eps absolutely, which moves -log(w) = -log(v)/b by a relative
    eps * b / |log v|; the other roundings of either path add a few eps, and
    the exponent -1/alpha divides the error of -log by alpha.  Rounding the
    exponent shifts both the noise and the scaling b**(-1/alpha) and cancels
    to first order.  So every value lies within eps * ((b / L + 4) / alpha
    + 5) of the sample, L the smallest |log v| of its row: the bound grows
    with b.

    For Pareto noise each margin is compared with the maxima of dense
    per-draw samples.  Through the continuous law of the margin, the
    two-sample distance is at most the sum of the two one-sample distances,
    and each exceeds sqrt(log(4 / delta) / (2 n)) with probability at most
    delta / 2 (Dvoretzky-Kiefer-Wolfowitz with Massart's constant), so a
    margin fails with probability at most delta = 1e-6.
    """
    alpha, d = model.alpha, model.d
    maxima = scaled_block_maxima(model, NoiseSpec(family, alpha), block_size, n_blocks, seed)
    if family == "frechet":
        v = np.random.default_rng(seed).random((n_blocks, d))
        lowest = np.abs(np.log(v)).min(axis=1, keepdims=True)
        expected = sample(model, NoiseSpec("frechet", alpha), n_blocks, seed).values
        bound = np.finfo(float).eps * ((block_size / lowest + 4) / alpha + 5)
        assert (np.abs(maxima / expected - 1) <= bound).all(), block_size
    else:
        expected = oracles.scaled_block_maxima(
            mlcm_from_weights(model), family, alpha, block_size, n_blocks, seed + 1
        )
        bound = 2 * np.sqrt(np.log(4 / 1e-6) / (2 * n_blocks))
        for i in range(d):
            distance = oracles.two_sample_ks(maxima[:, i], expected[:, i])
            assert distance <= bound, (block_size, i)


def longest_paths(model: WeightedModel) -> np.ndarray:
    """L_i, the number of edges of a longest path into node i, per node."""
    lengths = np.zeros(model.d, dtype=int)
    for i in oracles.topological_order(model.d, set(model.dag.edges)):
        lengths[i - 1] = max((lengths[k - 1] + 1 for k, j in model.dag.edges if j == i), default=0)
    return lengths


def assert_sample_matches_references(model, family, alpha, n, seed):
    """``sample`` is the recursive oracle to the bit, and the dense one to rounding.

    The recursion and the noise representation ``max_j b_ji * Z_j`` take
    the maximum over the same paths into node i, each path product of the
    noise z_j, its scale c_jj and the L_p <= L_i edge weights on the path
    with L_p + 1 roundings, in another order: the recursion multiplies from
    the noise along the path, B multiplies the weights first.  Rounding to
    nearest is monotone and the maximum exact, so each side is the maximum
    of its rounded path products.  One rounding is a factor within
    1 +- u / (1 + u), u = 2**-53, so two roundings of the same path product
    differ by a factor within (1 + 2u)**(L_i + 1), and so do the two maxima.
    With m = L_i + 1, (1 + 2u)**m - 1 <= exp(2mu) - 1 <= 2mu / (1 - mu)
    = 2 * gamma_m (term by term, 2**k / k! <= 2).  No value here leaves the
    normal range of float64, so
    ``|x / x_dense - 1| <= 2 * gamma_{L_i + 1}`` per entry.  The quotient is
    rounded too, but 1 +- 2mu lie on float64's grid near one, so the rounded
    quotient stays within them.
    """
    block = sample(model, NoiseSpec(family, alpha), n, seed=seed)
    z = oracles.noise(np.random.default_rng(seed), family, alpha, (n, model.d))
    assert block.values.tobytes() == oracles.recursive_sample(model, z).tobytes()
    dense = oracles.max_linear_sample(mlcm_from_weights(model), z)
    mu = (longest_paths(model) + 1) * 2.0**-53
    assert (np.abs(block.values / dense - 1) <= 2 * mu / (1 - mu)).all()


class TestColumnKernel:
    """The recursive kernel against the structural equations and the dense product."""

    @pytest.mark.parametrize("family,alpha", [("pareto", 1.0), ("frechet", 0.7)])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 20, 50])
    @pytest.mark.parametrize("kind", ["general", "polytree", "homogeneous"])
    def test_sample_equals_dense_reference(self, kind, d, family, alpha):
        model = kind_model(kind, d, alpha, seed=d)
        assert_sample_matches_references(model, family, alpha, 1000, seed=100 + d)

    @pytest.mark.parametrize("family,alpha", [("pareto", 2.0), ("frechet", 1.0)])
    def test_sample_across_row_blocks(self, family, alpha):
        model = kind_model("general", 12, alpha, seed=4)
        assert_sample_matches_references(model, family, alpha, 2 * _ROWS + 17, seed=8)

    def test_sample_path_builds_no_coefficient_matrix(self, monkeypatch):
        # The sampler evaluates the structural equations from the weights.
        def refuse(model):
            raise AssertionError("the sample path built B")

        monkeypatch.setattr("maxlindag.simulate.mlcm_from_weights", refuse)
        model = kind_model("general", 8, 1.0, seed=3)
        noise = NoiseSpec("pareto", 1.0)
        assert sample(model, noise, _ROWS + 5, seed=1).values.shape == (_ROWS + 5, 8)
        assert scaled_block_maxima(model, noise, 10, 100, seed=1).shape == (100, 8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("family", ["pareto", "frechet"])
    @pytest.mark.parametrize("kind", ["general", "polytree", "homogeneous"])
    def test_block_maxima_equal_dense_reference(self, kind, family, alpha):
        # A block of one draw is one draw of the model; blocks of 10 000
        # draws test the Frechet rounding bound at a large block size.
        model = kind_model(kind, 6, alpha, seed=11)
        for block_size in (1, 50, 10_000) if family == "frechet" else (1, 50):
            assert_block_maxima_match_reference(model, family, block_size, 4000, seed=5)

    @pytest.mark.parametrize("family,alpha", [("pareto", 2.0), ("frechet", 1.0)])
    def test_block_maxima_across_row_blocks(self, family, alpha):
        # More blocks than the kernel's row block, so the block extremes are
        # evaluated in three row blocks.
        model = kind_model("general", 6, alpha, seed=4)
        for block_size in (1, 3):
            assert_block_maxima_match_reference(model, family, block_size, 2 * _ROWS + 17, seed=3)

    def test_empirical_tdm_counts_are_exact(self):
        model = kind_model("general", 8, 1.0, seed=3)
        block = sample(model, NoiseSpec("pareto", 1.0), 20_000, seed=3)
        values = block.values
        exceed = values > np.quantile(values, 0.95, axis=0)
        joint = np.array([[np.sum(exceed[:, i] & exceed[:, j]) for j in range(8)]
                          for i in range(8)])
        counts = exceed.sum(axis=0)
        expected = 2.0 * joint / (counts[:, None] + counts[None, :])
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(empirical_tdm(block, 0.95), expected)

    @pytest.mark.parametrize("n", [_ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 7])
    def test_empirical_tdm_equals_the_whole_array_estimate(self, n):
        # The hits are counted one row block at a time; the counts, and so
        # every bit of chi, are those of one (n, d) array of hits, whatever
        # the layout of the sample.  At u = 0.5 nearly every row has a hit,
        # so a row lost at a block boundary shows.
        noise = NoiseSpec("pareto", 1.0)
        model = kind_model("general", 7, 1.0, seed=n % 5)
        values = sample(model, noise, n, seed=n).values
        for u in (0.5, 0.95, 0.99):
            assert n * (1.0 - u) >= 50
            expected = oracles.empirical_tdm(values, u).tobytes()
            for layout in (np.asfortranarray(values), np.ascontiguousarray(values)):
                assert oracles.empirical_tdm(layout, u).tobytes() == expected
                block = SampleBlock(layout, n, model, noise)
                assert empirical_tdm(block, u).tobytes() == expected

    def test_row_blocks_without_a_hit_count_nothing(self):
        # Rows sorted by their largest marginal rank put every hit in the last
        # row block, so the first blocks keep no row for the counts.
        n, u = 3 * _ROWS + 7, 0.98
        noise = NoiseSpec("pareto", 1.0)
        model = kind_model("general", 7, 1.0, seed=2)
        values = sample(model, noise, n, seed=5).values
        ranks = values.argsort(axis=0).argsort(axis=0)
        values = values[ranks.max(axis=1).argsort()]
        quantiles = np.array([np.quantile(column, u) for column in values.T])
        assert not (values[: 2 * _ROWS] > quantiles).any()
        expected = oracles.empirical_tdm(values, u).tobytes()
        for layout in (np.asfortranarray(values), np.ascontiguousarray(values)):
            assert empirical_tdm(SampleBlock(layout, n, model, noise), u).tobytes() == expected

    @pytest.mark.parametrize("kernel,bound", [
        ("sample", 1.25), ("empirical_tdm", 0.25), ("scaled_block_maxima", 1.5),
    ])
    def test_peak_memory_is_one_sample(self, kernel, bound):
        # In units of one (n, d) float64 array.  The output is one unit and the
        # row blocks of draws, noise or hits add 0.1-0.2 at d = 20; one more
        # (n, d) temporary would add a whole unit.
        n, d = 200_000, 20
        model = kind_model("general", d, 1.0, seed=2)
        noise = NoiseSpec("pareto", 1.0)
        block = sample(model, noise, n, seed=1) if kernel == "empirical_tdm" else None
        calls = {
            "sample": lambda: sample(model, noise, n, seed=1),
            "empirical_tdm": lambda: empirical_tdm(block, 0.98),
            "scaled_block_maxima": lambda: scaled_block_maxima(model, noise, 10, n, seed=1),
        }
        tracemalloc.start()
        try:
            calls[kernel]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * d * 8, peak / (n * d * 8)


def tail_columns(n: int):
    # Heavy and light tails, ties, negative values, sorted, reversed and
    # constant columns, and a strided view, each in five dtypes.
    rng = np.random.default_rng(n)
    pareto = rng.pareto(1.0, n) + 1.0
    normal = rng.normal(size=n)
    kinds = {
        "pareto": pareto, "normal": normal, "sorted": np.sort(normal),
        "reversed": np.sort(normal)[::-1], "constant": np.full(n, -2.5),
        "ties": rng.integers(-4, 5, n).astype(float), "strided": np.c_[normal, pareto][:, 0],
    }
    for name, column in kinds.items():
        small = np.clip(column, -1000.0, 1000.0)  # no int16 difference wraps
        yield name, column
        for dtype in (np.float32, np.int64, np.int16):
            yield name, small.astype(dtype)
        yield name, (np.abs(small) % 256).astype(np.uint8)


@pytest.fixture
def partitioned(monkeypatch):
    # The length of every array that np.partition is given.
    sizes, partition = [], np.partition
    monkeypatch.setattr(np, "partition", lambda a, kth: sizes.append(len(a)) or partition(a, kth))
    return sizes


class TestTailQuantile:
    LEVELS = (0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99)
    SIZES = (50, 51, 999, _ROWS - 1, _ROWS, _ROWS + 1, 70_001)

    def test_the_grid_reaches_every_branch_of_the_interpolation(self):
        # gamma == 0, 0 < gamma < 0.5 and numpy's gamma >= 0.5 branch.
        gammas = [(n - 1) * u % 1 for n in self.SIZES for u in self.LEVELS]
        assert 0.0 in gammas
        assert any(0.0 < gamma < 0.5 for gamma in gammas)
        assert any(gamma >= 0.5 for gamma in gammas)

    @pytest.mark.parametrize("n", SIZES)
    def test_equals_numpys_quantile_in_bits_and_dtype(self, n):
        for name, column in tail_columns(n):
            for u in self.LEVELS:
                expected, got = np.quantile(column, u), _tail_quantile(column, u)
                assert type(got) is type(expected), (name, column.dtype, u)
                assert got.tobytes() == expected.tobytes(), (name, column.dtype, u)

    def test_zeros_of_both_signs(self):
        rng = np.random.default_rng(7)
        for n in (50, 51, 999, _ROWS + 1):
            column = rng.choice([-0.0, 0.0, -1.0], n)
            for dtype in (np.float64, np.float32):
                for u in self.LEVELS:
                    expected = np.quantile(column.astype(dtype), u)
                    assert _tail_quantile(column.astype(dtype), u).tobytes() == expected.tobytes()

    def test_a_thin_subsample_falls_back_to_the_whole_column(self, partitioned):
        # The large values lie at multiples of _STRIDE only: the strided
        # subsample is all large, so the cut leaves fewer candidates than
        # the tail holds, and the whole column is partitioned.
        n, u = 32_000, 0.98
        column = np.random.default_rng(3).random(n)
        column[::_STRIDE] += 10.0
        assert _tail_quantile(column, u).tobytes() == np.quantile(column, u).tobytes()
        assert partitioned[-1] == n

    def test_ties_at_the_cut_stay_on_the_tail(self, partitioned):
        # A fifth of the values tie at the top.  The cut falls on them, and
        # every value at or above it is a candidate, so only those are
        # partitioned.
        n, u = 32_000, 0.95
        column = (np.random.default_rng(4).random(n) < 0.2).astype(float)
        assert _tail_quantile(column, u).tobytes() == np.quantile(column, u).tobytes()
        assert max(partitioned) < n / 2


class TestOverflow:
    @pytest.mark.parametrize("family", ["pareto", "frechet"])
    def test_sample_raises(self, family):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="tail index 0.01"):
                sample(overflowing_model(), NoiseSpec(family, 0.01), 10_000, seed=2)

    @pytest.mark.parametrize("family", ["pareto", "frechet"])
    def test_block_maxima_raise(self, family):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="tail index 0.01"):
                scaled_block_maxima(overflowing_model(), NoiseSpec(family, 0.01), 100, 100, seed=2)


class TestEmpiricalTdm:
    def test_independent_components_near_zero(self):
        dag = Dag(2)
        model = WeightedModel(dag, {}, (1.0, 1.0), 1.0)
        block = sample(model, NoiseSpec("frechet", 1.0), 100_000, seed=7)
        chi_hat = empirical_tdm(block, 0.98)
        # 3 binomial standard errors around zero for 2000 exceedances
        assert abs(chi_hat[0, 1]) <= 3 * np.sqrt(0.98 * 0.02 / 2000) + 0.02

    def test_comonotone_components_exactly_one(self):
        x = np.random.default_rng(3).pareto(2.0, size=5000) + 1.0
        model = single_edge_model(0.5)
        block = SampleBlock(np.column_stack([x, x]), 0, model, NoiseSpec("frechet", 1.0))
        chi_hat = empirical_tdm(block, 0.95)
        assert chi_hat[0, 1] == 1.0

    def test_single_edge_model_estimate(self):
        model = single_edge_model(0.5)
        block = sample(model, NoiseSpec("frechet", 1.0), 200_000, seed=11)
        chi_hat = empirical_tdm(block, 0.98)
        assert chi_hat[0, 1] == pytest.approx(0.5, abs=0.05)

    def test_symmetry_and_unit_diagonal(self):
        model = single_edge_model(0.7)
        block = sample(model, NoiseSpec("pareto", 1.0), 20_000, seed=2)
        chi_hat = empirical_tdm(block, 0.97)
        np.testing.assert_array_equal(chi_hat, chi_hat.T)
        np.testing.assert_array_equal(np.diag(chi_hat), [1.0, 1.0])

    def test_tail_floor_enforced(self):
        model = single_edge_model(0.5)
        block = sample(model, NoiseSpec("frechet", 1.0), 1000, seed=0)
        with pytest.raises(TailSampleError):
            empirical_tdm(block, 0.99)

    def test_a_constant_margin_has_no_exceedances(self):
        model = single_edge_model(0.5)
        block = SampleBlock(np.ones((1000, 2)), 0, model, NoiseSpec("frechet", 1.0))
        with pytest.raises(TailSampleError) as exc:
            empirical_tdm(block, 0.9)
        assert str(exc.value) == "a margin has no exceedances above its empirical quantile"

    def test_quantile_level_validated(self):
        model = single_edge_model(0.5)
        block = sample(model, NoiseSpec("frechet", 1.0), 1000, seed=0)
        with pytest.raises(ValidationError):
            empirical_tdm(block, 1.0)

    @pytest.mark.parametrize("values,message", [
        (np.ones(1000), "sample values must be a 2-D array, got 1-D"),
        (np.ones((1000, 2, 2)), "sample values must be a 2-D array, got 3-D"),
        ([[1.0, 2.0]] * 1000, "sample values must be a numpy array, got list"),
        (np.ones((1000, 2), dtype=bool), "sample values must be real numbers, got dtype bool"),
        (np.ones((1000, 2), dtype=complex),
         "sample values must be real numbers, got dtype complex128"),
        (np.ones((1000, 0)),
         r"sample values need at least one row and one column, got shape \(1000, 0\)"),
        (np.ones((0, 2)),
         r"sample values need at least one row and one column, got shape \(0, 2\)"),
        (np.full((1000, 2), np.nan), "sample column 1 has a value that is not finite"),
        (np.column_stack([np.arange(1000.0), np.full(1000, np.inf)]),
         "sample column 2 has a value that is not finite"),
        (np.column_stack([np.arange(1000.0), np.r_[np.arange(999.0), -np.inf]]),
         "sample column 2 has a value that is not finite"),
    ], ids=["1-D", "3-D", "list", "bool", "complex", "no-columns", "no-rows", "nan",
            "inf-column", "one-minus-inf"])
    def test_malformed_values_are_malformed_input(self, values, message):
        # Each once raised AttributeError, numpy's ValueError, a RuntimeWarning
        # or TailSampleError, or gave a 0x0 matrix.
        block = SampleBlock(values, 0, single_edge_model(0.5), NoiseSpec("frechet", 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{message}$"):
                empirical_tdm(block, 0.9)

    def test_integer_values_are_real(self):
        values = np.random.default_rng(4).integers(0, 10**6, size=(2000, 3))
        model = random_weighted_model(3, seed_or_rng=1)
        blocks = [SampleBlock(v, 0, model, NoiseSpec("pareto", 1.0))
                  for v in (values, values.astype(float))]
        assert np.array_equal(empirical_tdm(blocks[0], 0.9), empirical_tdm(blocks[1], 0.9))

    def test_narrow_integer_values_are_read_as_float64(self):
        # In int16, the quantile's interpolation b - a = 30000 - (-30000)
        # wraps; read as float64, the estimate is that of the same values.
        values = np.empty((1000, 2), dtype=np.int16)
        values[:, 0] = np.arange(1000)
        values[:, 1] = np.r_[np.full(950, -30000), np.full(50, 30000)]
        model, noise = random_weighted_model(2, seed_or_rng=1), NoiseSpec("pareto", 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chi = empirical_tdm(SampleBlock(values, 0, model, noise), 0.95)
        assert chi[0, 1] == chi[1, 0] == 1.0
        as_float = SampleBlock(values.astype(float), 0, model, noise)
        assert np.array_equal(chi, empirical_tdm(as_float, 0.95))


class TestLimitCdf:
    def test_standardized_marginal_is_standard_frechet(self):
        model = model_from_std_mlcm(BBAR_TWO_CLIQUES_MW, 1.0)
        for i in range(1, 5):
            assert limit_cdf(model, 1.0, i=i) == pytest.approx(np.exp(-1.0))
            assert limit_cdf(model, 2.0, i=i) == pytest.approx(np.exp(-0.5))

    def test_bivariate_marginalization_consistency(self):
        model = single_edge_model(0.4, alpha=2.0)
        for xj in (0.5, 1.0, 3.0):
            joint = limit_cdf(model, (np.inf, xj), i=1, j=2)
            assert joint == pytest.approx(limit_cdf(model, xj, i=2), rel=1e-12)

    def test_full_vector_matches_bivariate_for_two_nodes(self):
        model = single_edge_model(0.4)
        point = np.array([1.3, 0.8])
        assert limit_cdf(model, point) == pytest.approx(
            limit_cdf(model, (1.3, 0.8), i=1, j=2), rel=1e-12
        )

    def test_log_identity_reproduces_tail_dependence(self, corpus):
        for entry in corpus[:40]:
            model = entry.model
            points = unit_frechet_points(model)
            d = model.d
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    value = 2.0 + np.log(
                        limit_cdf(model, (points[i - 1], points[j - 1]), i=i, j=j)
                    )
                    assert value == pytest.approx(entry.chi[i - 1, j - 1], abs=1e-12)

    def test_rejects_nonpositive_points(self):
        model = single_edge_model(0.4)
        with pytest.raises(ValidationError):
            limit_cdf(model, 0.0, i=1)
        with pytest.raises(ValidationError):
            limit_cdf(model, np.array([1.0, -2.0]))
        # NaN is not a positive point either.
        with pytest.raises(ValidationError, match="strictly positive"):
            limit_cdf(model, np.nan, i=1)
        with pytest.raises(ValidationError, match="strictly positive"):
            limit_cdf(random_weighted_model(3, seed_or_rng=1), [1.0, np.nan, 2.0])
        # A bool or a string is not a point; "1" once evaluated as 1.0.
        for point in ("1", True, np.array([True]), (1.0, True)):
            with pytest.raises(ValidationError, match="evaluation point must be real numbers"):
                limit_cdf(model, point, i=1, j=None if np.ndim(point) == 0 else 2)

    def test_second_node_alone_is_not_an_evaluation(self):
        with pytest.raises(ValidationError) as exc:
            limit_cdf(single_edge_model(0.4), 1.0, j=1)
        assert str(exc.value) == "a bivariate evaluation needs both node arguments"

    def test_point_has_one_value_per_evaluated_node(self):
        # A point of another size once raised numpy's reshape ValueError.
        model = random_weighted_model(3, seed_or_rng=1)
        for point, nodes, size in [((1.0, 2.0), {"i": 1}, 1), ((1.0, 2.0), {}, 3),
                                   (1.0, {"i": 1, "j": 2}, 2), ([1.0] * 4, {}, 3)]:
            with pytest.raises(ValidationError, match=f"one value per evaluated node, {size},"):
                limit_cdf(model, point, **nodes)

    def test_unit_frechet_points_of_standardized_model(self):
        model = model_from_std_mlcm(BBAR_TWO_CLIQUES_MW, 1.0)
        np.testing.assert_allclose(unit_frechet_points(model), np.ones(4), atol=1e-12)


class TestScaledBlockMaxima:
    def test_deterministic(self):
        model = single_edge_model(0.5)
        noise = NoiseSpec("frechet", 1.0)
        a = scaled_block_maxima(model, noise, 64, 100, seed=9)
        b = scaled_block_maxima(model, noise, 64, 100, seed=9)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (100, 2)

    @pytest.mark.parametrize("size", [0, -1])
    def test_block_size_and_count_validated(self, size):
        model = single_edge_model(0.5)
        noise = NoiseSpec("frechet", 1.0)
        with pytest.raises(ValidationError, match="block size"):
            scaled_block_maxima(model, noise, size, 100, seed=9)
        with pytest.raises(ValidationError, match="block count"):
            scaled_block_maxima(model, noise, 64, size, seed=9)

    def test_frechet_maxima_match_the_limit_marginals(self):
        dag = Dag(3, {(1, 2), (2, 3)})
        model = homogeneous_model(dag, 1.0)
        noise = NoiseSpec("frechet", 1.0)
        maxima = scaled_block_maxima(model, noise, 128, 4000, seed=21)
        for i in range(1, 4):
            distance = oracles.kolmogorov_distance(
                maxima[:, i - 1], lambda x: limit_cdf(model, x, i=i)
            )
            assert distance <= 0.03

    @pytest.mark.parametrize("family", ["pareto", "frechet"])
    def test_memory_does_not_grow_with_the_block_size(self, family):
        # One uniform per block and node: 10**5 draws per node would take
        # 2.4 MB for three nodes, twice over for a transposed copy.
        model = kind_model("general", 3, 1.0, seed=1)
        tracemalloc.start()
        try:
            scaled_block_maxima(model, NoiseSpec(family, 1.0), 10**5, 1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_alpha_mismatch_rejected(self, monkeypatch):
        # Checked before any uniform is drawn.
        monkeypatch.setattr(np.random, "default_rng", None)
        model = single_edge_model(0.5, alpha=2.0)
        with pytest.raises(ValidationError, match="differs from model tail index"):
            scaled_block_maxima(model, NoiseSpec("frechet", 1.0), 10, 10, seed=0)


# Each size or point once raised a bare OverflowError, or numpy's bare
# ValueError; numpy refuses every size here before it allocates anything.
_BIG = random_weighted_model(3, seed_or_rng=1)
BEYOND_CALLS = {
    "sample": (lambda: sample(_BIG, NoiseSpec("pareto", 1.0), 2**63, 1),
               "sample size is too large for a numpy array of 3 columns"),
    "sample_bytes": (lambda: sample(_BIG, NoiseSpec("frechet", 1.0), 2**62, 1),
                     "sample size is too large for a numpy array"),
    "block_count": (lambda: scaled_block_maxima(_BIG, NoiseSpec("pareto", 1.0), 10, 2**63, 1),
                    "block count is too large for a numpy array"),
    "block_size_frechet": (
        lambda: scaled_block_maxima(_BIG, NoiseSpec("frechet", 1.0), 10**400, 10, 1),
        "block size is too large for float64"),
    "block_size_pareto": (
        lambda: scaled_block_maxima(_BIG, NoiseSpec("pareto", 1.0), 10**400, 10, 1),
        "block size is too large for float64"),
    "limit_cdf": (lambda: limit_cdf(_BIG, 10**400, i=1),
                  "evaluation point has a value beyond float64"),
    "limit_cdf_pair": (lambda: limit_cdf(_BIG, (1.0, -10**400), i=1, j=2),
                       "evaluation point has a value beyond float64"),
}


# Each argument of another type once raised AttributeError.
_NOISE = NoiseSpec("pareto", 1.0)
TYPE_CALLS = {
    "sample_model": (lambda: sample(None, _NOISE, 10, 1),
                     "model must be a WeightedModel, got NoneType"),
    "sample_noise": (lambda: sample(_BIG, "pareto", 10, 1),
                     "noise must be a NoiseSpec, got str"),
    "block_maxima_model": (lambda: scaled_block_maxima(_BIG.dag, _NOISE, 10, 10, 1),
                           "model must be a WeightedModel, got Dag"),
    "block_maxima_noise": (lambda: scaled_block_maxima(_BIG, "pareto", 10, 10, 1),
                           "noise must be a NoiseSpec, got str"),
    "unit_frechet_points": (lambda: unit_frechet_points(None),
                            "model must be a WeightedModel, got NoneType"),
    "limit_cdf": (lambda: limit_cdf(None, 1.0, i=1),
                  "model must be a WeightedModel, got NoneType"),
    "empirical_tdm": (lambda: empirical_tdm(np.ones((1000, 3)), 0.9),
                      "block must be a SampleBlock, got ndarray"),
}


@pytest.mark.parametrize("call", list(TYPE_CALLS), ids=list(TYPE_CALLS))
def test_arguments_of_another_type_are_rejected(call, monkeypatch):
    # Checked before any uniform is drawn.
    monkeypatch.setattr(np.random, "default_rng", None)
    run, message = TYPE_CALLS[call]
    with pytest.raises(ValidationError) as exc:
        run()
    assert str(exc.value) == message


@pytest.mark.parametrize("call", list(BEYOND_CALLS), ids=list(BEYOND_CALLS))
def test_sizes_and_points_beyond_float64_or_an_array_are_rejected(call, monkeypatch):
    # Checked before any uniform is drawn.
    monkeypatch.setattr(np.random, "default_rng", None)
    run, message = BEYOND_CALLS[call]
    with pytest.raises(ValidationError, match=message):
        run()


def test_large_block_size_and_infinite_point_are_kept():
    assert limit_cdf(_BIG, float("inf"), i=1) == 1.0
    assert limit_cdf(_BIG, 10**300, i=1) == limit_cdf(_BIG, 1e300, i=1)
    maxima = scaled_block_maxima(_BIG, NoiseSpec("frechet", 1.0), 10**300, 4, 1)
    assert maxima.shape == (4, 3) and np.isfinite(maxima).all()


class TestNoiseFamiliesAgree:
    def test_same_tdm_for_pareto_and_frechet(self):
        # same standardized matrix, alpha 2; both estimates near the truth
        bbar = BBAR_TWO_CLIQUES_MW
        chi = tdm_from_std_mlcm(bbar)
        model = model_from_std_mlcm(bbar, 2.0)
        fre = empirical_tdm(sample(model, NoiseSpec("frechet", 2.0), 100_000, 31), 0.98)
        par = empirical_tdm(sample(model, NoiseSpec("pareto", 2.0), 100_000, 32), 0.98)
        assert np.abs(fre - chi).max() <= 0.06
        assert np.abs(par - chi).max() <= 0.06
        assert np.abs(fre - par).max() <= 0.05

    def test_standardization_is_alpha_consistent(self):
        # the pareto-alpha-2 model's coefficient matrix standardizes back
        model = model_from_std_mlcm(BBAR_TWO_CLIQUES_MW, 2.0)
        again = standardize(mlcm_from_weights(model), 2.0)
        np.testing.assert_allclose(again, BBAR_TWO_CLIQUES_MW, atol=1e-12)
