import math
import os
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import CHI_TRIANGLE, CHI_TWO_CLIQUES, TWO_CLIQUES_MW_DAG
from maxlindag import (
    Dag,
    FormatError,
    NoiseSpec,
    WeightedModel,
    homogeneous_model,
    mlcm_from_weights,
    random_weighted_model,
    reachability_matrix,
    sample,
    standardize,
    tdm_from_std_mlcm,
)
from maxlindag.cli import main
from maxlindag.io import (
    _CELLS,
    dumps_matrix,
    dumps_model,
    loads_matrix,
    loads_model,
    model_to_dot,
    read_matrix,
    read_model,
    write_matrix,
    write_model,
)


class TestModelFiles:
    def test_round_trip_is_lossless(self, tmp_path):
        model = random_weighted_model(6, 0.6, (0.1, 7.3), 1.75, 99)
        path = tmp_path / "model.json"
        write_model(model, path)
        again = read_model(path)
        assert again.dag == model.dag
        assert again.alpha == model.alpha
        assert again.noise_scales == model.noise_scales
        assert again.edge_weights == model.edge_weights

    def test_bad_json_raises(self):
        with pytest.raises(FormatError):
            loads_model("not json {")

    def test_a_json_array_is_not_a_model(self):
        with pytest.raises(FormatError) as exc:
            loads_model("[1, 2]")
        assert str(exc.value) == "model file must contain a JSON object"

    def test_missing_keys_raise(self):
        with pytest.raises(FormatError, match="missing"):
            loads_model('{"alpha": 1.0, "d": 2}')

    @pytest.mark.parametrize("field,value,message", [
        ("d", "2.7", "d has the wrong type"),
        ("d", "true", "d has the wrong type"),
        ("d", '"2"', "d has the wrong type"),
        ("alpha", '"2"', "alpha has the wrong type"),
        ("alpha", "false", "alpha has the wrong type"),
        ("noise_scales", '"12"', "noise_scales has the wrong type"),
        ("noise_scales", '[1, "2"]', "a noise scale has the wrong type"),
        ("edges", '["123"]', "an edge must be a [k, i, c_ki] array"),
        ("edges", "[[1, 2]]", "an edge must be a [k, i, c_ki] array"),
        ("edges", "[[1.0, 2, 0.5]]", "an edge node has the wrong type"),
        ("edges", '[[1, 2, "0.5"]]', "the weight of edge 1->2 has the wrong type"),
        ("edges", "[[1, 2, 0.5], [1, 2, 0.7]]", "lists edge 1->2 twice"),
        # Integers beyond float64 break the number rules, not float().
        ("alpha", "1" + "0" * 400, "tail index must be finite and positive"),
        ("noise_scales", "[1, 1" + "0" * 400 + "]", "noise scales must be finite"),
        ("edges", "[[1, 2, 1" + "0" * 400 + "]]", "edge weights must be finite"),
    ])
    def test_malformed_values_raise(self, capsys, tmp_path, field, value, message):
        fields = {"alpha": "1.0", "d": "2", "noise_scales": "[1, 2.5]", "edges": "[[1, 2, 0.5]]"}
        fields[field] = value
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        with pytest.raises(FormatError, match=re.escape(message)):
            loads_model(text)
        path = tmp_path / "model.json"
        path.write_text(text)
        code, out, err = run(capsys, "dot", "--model", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_invalid_model_raises(self):
        text = '{"alpha": 1.0, "d": 2, "noise_scales": [1, 1], "edges": [[1, 1, 0.5]]}'
        with pytest.raises(FormatError):
            loads_model(text)


class TestMatrixFiles:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.uniform(0, 1, size=(4, 4)) * np.pi
        path = tmp_path / "m.csv"
        write_matrix(matrix, path)
        np.testing.assert_array_equal(read_matrix(path), matrix)

    def test_ragged_rows_raise(self):
        with pytest.raises(FormatError, match="row 2"):
            loads_matrix("1,2\n3\n")

    def test_non_numeric_cell_raises(self):
        with pytest.raises(FormatError, match="line 1"):
            loads_matrix("1,x\n3,4\n")

    def test_empty_raises(self):
        with pytest.raises(FormatError):
            loads_matrix("\n\n")

    @pytest.mark.parametrize("shape", [(1, 1), (37, 1), (2000, 10)])
    def test_written_bytes_equal_dumps(self, tmp_path, shape):
        rng = np.random.default_rng(shape[0])
        matrix = 10.0 ** rng.uniform(-300, 300, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        path = tmp_path / "m.csv"
        write_matrix(np.asfortranarray(matrix), path)
        assert path.read_bytes() == dumps_matrix(matrix).encode()

    def test_seventeen_digits_for_special_values(self):
        values = np.array([[0.0, -0.0, 5e-324, 1 / 3, np.inf, -np.inf, np.nan]])
        expected = ",".join(f"{v:.17g}" for v in values[0]) + "\n"
        assert dumps_matrix(values) == expected
        assert expected == "0,-0,4.9406564584124654e-324,0.33333333333333331,inf,-inf,nan\n"

    def test_a_matrix_without_rows_dumps_one_newline(self):
        assert dumps_matrix(np.zeros((0, 3))) == "\n"

    def test_non_matrix_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1\n")
        with pytest.raises(FormatError):
            write_matrix(np.zeros(3), path)
        assert path.read_text() == "1\n"


def percent_g(matrix) -> str:
    """The CSV text of a matrix, one ``"%.17g" % v`` per value."""
    rows = np.asarray(matrix, dtype=float).tolist()
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows) or "\n"


def seventeen_digit_ties() -> list[float]:
    # Odd multiples of 2**(k - 17) in [10**k, 10**(k+1)): x * 10**(16 - k) is
    # an odd multiple of 1/2, and the digit kept before the tie alternates
    # between even and odd along consecutive odd multiples.
    ties = []
    for k in range(-6, 16):
        first = math.ceil(Fraction(10) ** k * 2 ** (17 - k)) | 1
        for m in range(first, first + 8, 2):
            x = math.ldexp(m, k - 17)
            if m < 2**53 and x < 10.0 ** (k + 1):
                assert (Fraction(x) * Fraction(10) ** (16 - k)).denominator == 2
                ties.append(x)
    return ties


def powers_of_ten() -> list[float]:
    values = [10.0**e for e in range(-8, 19)]
    return [w for v in values for w in (np.nextafter(v, 0.0), v, np.nextafter(v, np.inf))]


class TestPercentG:
    """The CSV text is ``"%.17g" % v`` per value, byte for byte."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60), st.integers(1, 6))
    def test_any_float64_bit_pattern(self, bits, d):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        matrix = np.resize(values, (-(-len(values) // d), d))
        assert dumps_matrix(matrix) == percent_g(matrix)

    @pytest.mark.parametrize("name, values", [
        ("powers of ten and their neighbours", powers_of_ten()),
        ("the double below 1e17", [99999999999999984.0, 9.999999999999999e16, 1e17]),
        ("17-digit ties", seventeen_digit_ties()),
        ("zeros and bounds", [0.0, -0.0, 1e-6, np.nextafter(1e-6, 1.0), 1e-5, 1e-4, 1.0]),
        ("subnormals", [5e-324, 2.2250738585072009e-308, 1e-310, np.nextafter(0.0, 1.0) * 3]),
        ("non-finite", [np.inf, -np.inf, np.nan]),
        ("integers", [float(v) for v in (1, 9, 10, 99, 100, 12345, 2**53, 2**53 + 2, 10**16)]),
    ])
    def test_grid(self, name, values):
        column = np.array(values + [-v for v in values]).reshape(-1, 1)
        assert dumps_matrix(column) == percent_g(column)
        assert dumps_matrix(column.T) == percent_g(column.T)

    @pytest.mark.parametrize("d", [1, 3, 7])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_block_edges(self, d, extra, order):
        rows = max(1, _CELLS // d) + extra
        rng = np.random.default_rng(d)
        matrix = 10.0 ** rng.uniform(-7, 18, size=(rows, d)) * rng.choice([-1.0, 1.0], size=(rows, d))
        matrix[rng.random((rows, d)) < 0.05] = 0.0
        matrix = np.asarray(matrix, order=order)
        assert dumps_matrix(matrix) == percent_g(matrix)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (1, 2 * _CELLS + 1)])
    def test_degenerate_shapes(self, shape):
        matrix = np.linspace(0.5, 2.0, math.prod(shape)).reshape(shape)
        assert dumps_matrix(matrix) == percent_g(matrix)

    def test_the_corpus_matrices(self, corpus):
        for entry in corpus:
            for matrix in (entry.bbar, entry.chi):
                assert dumps_matrix(matrix) == percent_g(matrix), entry.index

    def test_peak_memory_is_a_fraction_of_the_sample(self, tmp_path):
        # The text is written in row blocks: one (n, d) text would take about
        # 2.4 units of the sample's n * d * 8 bytes.
        n, d = 50_000, 10
        model = random_weighted_model(d, 0.3, (0.5, 2.0), 1.0, seed_or_rng=3)
        values = sample(model, NoiseSpec("pareto", 1.0), n, seed=1).values
        path = tmp_path / "sample.csv"
        tracemalloc.start()
        try:
            write_matrix(values, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n * d * 8, peak / (n * d * 8)
        assert path.read_bytes() == percent_g(values).encode()


class TestDotExport:
    def test_edges_labeled_with_six_significant_digits(self):
        dag = Dag(2, {(1, 2)})
        model = WeightedModel(dag, {(1, 2): 0.123456789}, (1.0, 2.0), 1.0)
        text = model_to_dot(model)
        assert 'digraph' in text
        assert '1 -> 2 [label="0.123457"];' in text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def two_cliques_chi_file(tmp_path):
    path = tmp_path / "chi.csv"
    write_matrix(CHI_TWO_CLIQUES, path)
    return str(path)


@pytest.fixture()
def model_file(tmp_path):
    model = homogeneous_model(Dag(3, {(1, 2), (2, 3)}), 1.0)
    path = tmp_path / "model.json"
    write_model(model, path)
    return str(path)


class TestCliRecover:
    def test_recover_with_ordering_matches_contract(self, capsys, tmp_path):
        chi = tmp_path / "chi.csv"
        write_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]), chi)
        code, out, _ = run(capsys, "recover", "--chi", str(chi), "--ordering", "1,2")
        assert code == 0
        np.testing.assert_allclose(loads_matrix(out), [[1.0, 0.5], [0.0, 0.5]])

    def test_zero_diagonal_is_domain_rejection(self, capsys, tmp_path):
        chi = tmp_path / "chi.csv"
        write_matrix(np.ones((2, 2)), chi)
        code, out, err = run(capsys, "recover", "--chi", str(chi), "--ordering", "1,2")
        assert code == 1
        assert out == ""
        assert "diagonal" in err

    def test_support_that_is_not_a_reachability_matrix_is_domain_rejection(
        self, capsys, tmp_path
    ):
        # The model's edges are 1->4, 2->3 and 3->4; this ordering places 4
        # before 3, and the row recursion leaves a support that no DAG has.
        model = random_weighted_model(5, density=0.4, seed_or_rng=22)
        chi = tmp_path / "chi.csv"
        write_matrix(tdm_from_std_mlcm(standardize(mlcm_from_weights(model), model.alpha)), chi)
        code, out, err = run(capsys, "recover", "--chi", str(chi), "--ordering", "1,5,4,3,2")
        assert code == 1
        assert out == ""
        assert "reachability" in err

    def test_recover_with_reachability(self, capsys, two_cliques_chi_file, tmp_path):
        reach = tmp_path / "reach.csv"
        write_matrix(reachability_matrix(TWO_CLIQUES_MW_DAG), reach)
        code, out, _ = run(
            capsys, "recover", "--chi", two_cliques_chi_file, "--reachability", str(reach)
        )
        assert code == 0
        recovered = loads_matrix(out)
        assert recovered[1, 2] == pytest.approx(0.6)

    def test_recover_with_initials(self, capsys, two_cliques_chi_file):
        code, out, _ = run(
            capsys, "recover", "--chi", two_cliques_chi_file, "--initials", "1,2"
        )
        assert code == 0
        assert loads_matrix(out)[1, 3] == pytest.approx(0.5)

    def test_a_node_list_with_a_word_exits_two(self, capsys, two_cliques_chi_file):
        code, out, err = run(capsys, "recover", "--chi", two_cliques_chi_file, "--initials", "1,x")
        assert (code, out) == (2, "")
        assert err == "error: expected a comma-separated node list, got '1,x'\n"

    def test_pattern_mismatch_is_domain_rejection(self, capsys, two_cliques_chi_file, tmp_path):
        reach = tmp_path / "bad_reach.csv"
        write_matrix(np.eye(4), reach)
        code, _, err = run(
            capsys, "recover", "--chi", two_cliques_chi_file, "--reachability", str(reach)
        )
        assert code == 1
        assert "rejected" in err

    def test_reachability_support_that_is_not_closed_is_domain_rejection(
        self, capsys, tmp_path
    ):
        # Edge weights 1e-5 leave bbar_13 near 1e-10, which the row recursion
        # snaps to zero: a support without 1 -> 3 that no model has.
        model = WeightedModel(Dag(3, {(1, 2), (2, 3)}), {(1, 2): 1e-5, (2, 3): 1e-5},
                              (1.0, 1.0, 1.0), 1.0)
        chi, reach = tmp_path / "chi.csv", tmp_path / "reach.csv"
        write_matrix(tdm_from_std_mlcm(standardize(mlcm_from_weights(model), 1.0)), chi)
        write_matrix(reachability_matrix(model.dag), reach)
        code, out, err = run(capsys, "recover", "--chi", str(chi), "--reachability", str(reach))
        assert (code, out) == (1, "")
        assert "support is not a reachability matrix" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--ordering", "1,2", "ordering has length 2, matrix is 4x4"),
        ("--reachability", np.ones((4, 4)), "reachability input is not a reachability matrix"),
    ], ids=["ordering-length", "all-ones-reachability"])
    def test_malformed_side_information_exits_two(self, capsys, two_cliques_chi_file, tmp_path,
                                                  flag, value, message):
        if flag == "--reachability":
            write_matrix(value, tmp_path / "reach.csv")
            value = str(tmp_path / "reach.csv")
        code, out, err = run(capsys, "recover", "--chi", two_cliques_chi_file, flag, value)
        assert (code, out) == (2, "")
        assert message in err


class TestCliEnumerate:
    def test_rmwm_enumeration_output(self, capsys, two_cliques_chi_file):
        code, out, _ = run(capsys, "enumerate", "--rmwm", "--chi", two_cliques_chi_file)
        assert code == 0
        assert out.count("model ") == 1
        assert "initial_nodes: 1,2" in out
        assert "min_ml_dag: 1->3 2->3 2->4" in out
        assert "max_weighted: true" in out

    def test_general_enumeration_finds_two(self, capsys, two_cliques_chi_file):
        code, out, _ = run(capsys, "enumerate", "--chi", two_cliques_chi_file)
        assert code == 0
        assert out.count("model ") == 2

    def test_unrealizable_is_domain_rejection(self, capsys, tmp_path):
        chi = tmp_path / "bad.csv"
        write_matrix(
            np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]]), chi
        )
        code, _, err = run(capsys, "enumerate", "--chi", str(chi))
        assert code == 1
        assert "not the tail dependence matrix" in err

    def test_cap_exceedance_is_malformed_request(self, capsys, tmp_path):
        chi = tmp_path / "big.csv"
        write_matrix(np.eye(11), chi)
        code, _, err = run(capsys, "enumerate", "--chi", str(chi))
        assert code == 2
        assert "cap" in err
        code, out, _ = run(capsys, "enumerate", "--chi", str(chi), "--max-d", "11")
        assert code == 0

    def test_max_weighted_enumeration_has_no_cap(self, capsys, two_cliques_chi_file):
        argv = ["enumerate", "--chi", two_cliques_chi_file, "--rmwm"]
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, "--max-d", "1")
        assert (code, out) == (2, "")
        assert err == "error: --max-d is read only without --rmwm\n"


class TestCliCheck:
    def test_asymmetric_tdm_is_malformed_and_names_the_entry(self, capsys, tmp_path):
        chi = tmp_path / "asym.csv"
        write_matrix(np.array([[1.0, 0.3], [0.2, 1.0]]), chi)
        reach = tmp_path / "reach.csv"
        write_matrix(np.array([[1, 1], [0, 1]]), reach)
        code, _, err = run(
            capsys, "check", "--tdm-on-dag", "--chi", str(chi), "--reachability", str(reach)
        )
        assert code == 2
        assert "(1,2)" in err

    def test_tdm_on_dag_accepts(self, capsys, two_cliques_chi_file, tmp_path):
        reach = tmp_path / "reach.csv"
        write_matrix(reachability_matrix(TWO_CLIQUES_MW_DAG), reach)
        code, out, _ = run(
            capsys,
            "check", "--tdm-on-dag", "--chi", two_cliques_chi_file,
            "--reachability", str(reach),
        )
        assert code == 0
        assert "valid" in out

    def test_tdm_on_dag_rejects_wrong_dag(self, capsys, two_cliques_chi_file, tmp_path):
        reach = tmp_path / "reach.csv"
        write_matrix(reachability_matrix(Dag(4, {(1, 3), (4, 3), (4, 2)})), reach)
        code, out, _ = run(
            capsys,
            "check", "--tdm-on-dag", "--chi", two_cliques_chi_file,
            "--reachability", str(reach),
        )
        assert code == 1
        assert "invalid" in out

    def test_tdm_on_dag_reads_the_dag_of_a_model_file(self, capsys, tmp_path):
        chi = tmp_path / "chi.csv"
        write_matrix(CHI_TWO_CLIQUES, chi)
        # Only the model's DAG is read: the generating one, then another.
        paths = [tmp_path / "right.json", tmp_path / "wrong.json"]
        for dag, path in zip((TWO_CLIQUES_MW_DAG, Dag(4, {(1, 3), (4, 3), (4, 2)})), paths):
            write_model(homogeneous_model(dag, 1.0), path)
        codes = [
            run(capsys, "check", "--tdm-on-dag", "--chi", str(chi), "--model", str(path))[0]
            for path in paths
        ]
        assert codes == [0, 1]

    def test_check_mlcm_verdicts(self, capsys, tmp_path):
        good = tmp_path / "good.csv"
        write_matrix(np.array([[1.0, 0.1, 1 / 3], [0.0, 0.9, 1 / 3], [0.0, 0.0, 1 / 3]]), good)
        code, out, _ = run(capsys, "check", "--mlcm", str(good))
        assert code == 0 and "valid" in out
        bad = tmp_path / "bad.csv"
        write_matrix(
            np.array([[1.0, 0.1, 1 / 3], [0.0, 17 / 30, 0.0], [0.0, 1 / 3, 2 / 3]]), bad
        )
        code, out, _ = run(capsys, "check", "--mlcm", str(bad))
        assert code == 1 and "recomposition" in out

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_check_mlcm_outside_the_normal_range_is_rejected(self, capsys, tmp_path, scale):
        path = tmp_path / "scaled.csv"
        write_matrix(scale * np.triu(np.ones((3, 3))), path)
        code, out, err = run(capsys, "check", "--mlcm", str(path))
        assert (code, out) == (1, "")
        assert err == ("rejected: a chained product or through value of pair (1,3) "
                       "leaves the normal range of float64\n")

    def test_missing_tdm_inputs_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--tdm-on-dag")
        assert code == 2
        assert err == "error: --tdm-on-dag requires --chi and one of --reachability/--model\n"

    def test_matrix_check_rejects_a_chi(self, capsys, tmp_path):
        matrix = tmp_path / "b.csv"
        write_matrix(np.eye(2), matrix)
        code, out, err = run(capsys, "check", "--mlcm", str(matrix), "--chi", str(matrix))
        assert (code, out) == (2, "")
        assert err == "error: --chi is read only with --tdm-on-dag\n"

    def test_max_weighted_check_rejects_dag_flags(self, capsys, tmp_path):
        # The model file does not exist: the flag is rejected before any read.
        matrix = tmp_path / "b.csv"
        write_matrix(np.eye(2), matrix)
        code, out, err = run(capsys, "check", "--rmwm", str(matrix), "--reachability",
                             str(matrix), "--model", str(tmp_path / "missing.json"))
        assert (code, out) == (2, "")
        assert err == "error: --reachability is read only with --tdm-on-dag\n"

    def test_tdm_check_takes_one_dag(self, capsys, tmp_path, model_file):
        # The edgeless DAG rejects the chain's chi and the chain's model file
        # accepts it: given both, neither may win.
        chi, reach = tmp_path / "chi.csv", tmp_path / "reach.csv"
        write_matrix(tdm_from_std_mlcm(standardize(mlcm_from_weights(read_model(model_file)),
                                                   1.0)), chi)
        write_matrix(np.eye(3), reach)
        argv = ["check", "--tdm-on-dag", "--chi", str(chi)]
        assert run(capsys, *argv, "--reachability", str(reach))[0] == 1
        assert run(capsys, *argv, "--model", model_file)[0] == 0
        code, out, err = run(capsys, *argv, "--reachability", str(reach), "--model", model_file)
        assert (code, out) == (2, "")
        assert err == "error: --reachability and --model both give the DAG; pass one\n"


NAN_CHI = np.array([[1.0, np.nan], [np.nan, 1.0]])


class TestCliNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("recover", "--ordering", "1,2", "--chi"),
            ("enumerate", "--chi"),
            ("check", "--mlcm"),
        ],
        ids=["recover", "enumerate", "check-mlcm"],
    )
    def test_nan_is_malformed(self, capsys, tmp_path, argv):
        path = tmp_path / "nan.csv"
        write_matrix(NAN_CHI, path)
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert "non-finite" in err


class TestCliPipeline:
    def test_tdm_matches_library(self, capsys, model_file):
        code, out, _ = run(capsys, "tdm", "--model", model_file)
        assert code == 0
        model = read_model(model_file)
        expected = tdm_from_std_mlcm(standardize(mlcm_from_weights(model), model.alpha))
        assert out == dumps_matrix(expected)

    def test_standardize_command(self, capsys, tmp_path):
        path = tmp_path / "b.csv"
        write_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]), path)
        code, out, _ = run(capsys, "standardize", str(path), "--alpha", "1.0")
        assert code == 0
        np.testing.assert_allclose(loads_matrix(out), [[1.0, 1 / 3], [0.0, 2 / 3]])

    def test_gen_is_byte_identical_per_seed(self, capsys):
        code1, out1, _ = run(capsys, "gen", "5", "--polytree", "--seed", "7")
        code2, out2, _ = run(capsys, "gen", "5", "--polytree", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        model = loads_model(out1)
        assert model.d == 5

    def test_gen_requires_seed(self, capsys):
        code, _, err = run(capsys, "gen", "5")
        assert code == 2

    @pytest.mark.parametrize("weights", ["a,b", "0.5", "0.5,1,2"])
    def test_gen_malformed_weight_range(self, capsys, weights):
        code, out, err = run(capsys, "gen", "5", "--seed", "1", "--weight-range", weights)
        assert code == 2
        assert out == ""
        assert "--weight-range" in err

    @pytest.mark.parametrize("argv,message", [
        (["gen", "3", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (["simulate", "--n", "20", "--seed", "-5", "--out", "x.csv"],
         "seed must be a non-negative integer, got -5"),
        (["gen", "3", "--seed", "1", "--weight-range", "1,inf"], "lo <= hi < inf"),
        (["gen", "3", "--seed", "1", "--weight-range", "1,nan"], "lo <= hi < inf"),
    ], ids=["gen-seed", "simulate-seed", "gen-inf-weight", "gen-nan-weight"])
    def test_bad_seed_or_weight_range_exits_two(self, capsys, tmp_path, model_file,
                                                argv, message):
        if argv[0] == "simulate":
            argv = argv[:1] + ["--model", model_file] + argv[1:-1] + [str(tmp_path / argv[-1])]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_gen_homogeneous_weights_follow_ancestor_counts(self, capsys):
        code, out, _ = run(
            capsys, "gen", "4", "--homogeneous", "--density", "0.8", "--seed", "3"
        )
        assert code == 0
        model = loads_model(out)
        for (k, i), weight in model.edge_weights.items():
            nk = len(model.dag.ancestors_closed(k))
            ni = len(model.dag.ancestors_closed(i))
            assert weight == pytest.approx((nk / ni) ** (1 / model.alpha))

    def test_simulate_size_beyond_an_array_exits_two(self, capsys, model_file, tmp_path):
        # numpy's bare ValueError once printed a traceback and exited 1.
        out_file = tmp_path / "big.csv"
        code, out, err = run(capsys, "simulate", "--model", model_file, "--n",
                             "100000000000000000000000", "--seed", "1", "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: sample size is too large for a numpy array")
        assert not out_file.exists()

    def test_simulate_writes_samples_and_estimate(self, capsys, model_file, tmp_path):
        samples = tmp_path / "x.csv"
        chi_out = tmp_path / "chi_hat.csv"
        code, _, _ = run(
            capsys,
            "simulate", "--model", model_file, "--n", "20000", "--seed", "1",
            "--u", "0.97", "--out", str(samples), "--chi-out", str(chi_out),
        )
        assert code == 0
        values = read_matrix(samples)
        assert values.shape == (20000, 3)
        chi_hat = read_matrix(chi_out)
        assert chi_hat.shape == (3, 3)
        assert abs(chi_hat[0, 1] - 0.5) < 0.08

    def test_simulate_overflow_is_malformed(self, capsys, tmp_path):
        path = tmp_path / "heavy.json"
        write_model(random_weighted_model(5, density=0.5, alpha=0.01, seed_or_rng=1), path)
        code, _, err = run(
            capsys, "simulate", "--model", str(path), "--noise", "pareto", "--n", "10000",
            "--seed", "2", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "tail index 0.01" in err

    def test_simulate_without_outputs_is_an_error(self, capsys, model_file):
        code, _, err = run(capsys, "simulate", "--model", model_file, "--n", "10", "--seed", "1")
        assert code == 2
        assert "nothing to do" in err

    def test_dot_command(self, capsys, model_file):
        code, out, _ = run(capsys, "dot", "--model", model_file)
        assert code == 0
        assert out.startswith("digraph")
        assert "1 -> 2" in out

    def test_missing_file_is_malformed(self, capsys):
        code, _, err = run(capsys, "tdm", "--model", "/nonexistent/file.json")
        assert code == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_invalid_tol_flag(self, capsys, two_cliques_chi_file):
        for tol in ("0", "-1", "nan", "inf", "abc", "1", "2"):
            code, _, err = run(capsys, "enumerate", "--chi", two_cliques_chi_file, "--tol", tol)
            assert code == 2
            assert "--tol" in err

    @pytest.mark.parametrize("argv", [
        ["check", "--tdm-on-dag", "--reachability"],
        ["recover", "--reachability"],
        ["enumerate"],
    ], ids=["check", "recover", "enumerate"])
    def test_tol_does_not_loosen_the_chi_gate(self, capsys, tmp_path, argv):
        chi = tmp_path / "chi.csv"
        reach = tmp_path / "reach.csv"
        write_matrix(np.array([[1.0, 1e-7], [0.0, 1.0]]), chi)
        write_matrix(np.eye(2), reach)
        if argv[-1] == "--reachability":
            argv = argv + [str(reach)]
        code, _, err = run(capsys, *argv, "--chi", str(chi), "--tol", "1e-6")
        assert code == 2
        assert "asymmetric at entry (1,2): 1e-07 vs 0.0" in err

    @pytest.mark.parametrize("command,flag", [
        ("gen", "--tol"), ("dot", "--tol"), ("standardize", "--tol"), ("simulate", "--tol"),
        ("check", "--out"), ("recover", "--rmwm"), ("tdm", "--tol"),
    ])
    def test_unread_flag_is_rejected(self, capsys, tmp_path, model_file, command, flag):
        matrix = tmp_path / "b.csv"
        write_matrix(np.eye(2), matrix)
        argv = {
            "gen": ["gen", "3", "--seed", "1"],
            "tdm": ["tdm", "--model", model_file],
            "dot": ["dot", "--model", model_file],
            "standardize": ["standardize", str(matrix), "--alpha", "1.0"],
            "simulate": ["simulate", "--model", model_file, "--n", "10", "--seed", "1",
                         "--out", str(tmp_path / "x.csv")],
            "check": ["check", "--mlcm", str(matrix)],
            "recover": ["recover", "--chi", str(matrix), "--reachability", str(matrix)],
        }[command]
        value = {"--tol": ["1e-9"], "--out": [str(tmp_path / "x")], "--rmwm": []}[flag]
        assert run(capsys, *argv)[0] == 0
        code, _, err = run(capsys, *argv, flag, *value)
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err


def test_simulate_reads_chi_out_only_with_u(capsys, tmp_path, model_file):
    samples, estimate = tmp_path / "s.csv", tmp_path / "c.csv"
    code, out, err = run(capsys, "simulate", "--model", model_file, "--n", "10", "--seed", "1",
                         "--out", str(samples), "--chi-out", str(estimate))
    assert (code, out) == (2, "")
    assert err == "error: --chi-out is read only with --u\n"
    assert not samples.exists() and not estimate.exists()


class TestConsoleEntryPoint:
    def test_module_execution(self, tmp_path):
        import subprocess
        import sys

        chi = tmp_path / "chi.csv"
        write_matrix(CHI_TRIANGLE, chi)
        proc = subprocess.run(
            [sys.executable, "-m", "maxlindag", "enumerate", "--chi", str(chi)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.count("model ") == 2
