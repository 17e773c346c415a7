import os

import numpy as np
import pytest

from cases import CHI_TRIANGLE, CHI_TWO_CLIQUES, TWO_CLIQUES_MW_DAG
from maxlindag import (
    Dag,
    FormatError,
    WeightedModel,
    homogeneous_model,
    mlcm_from_weights,
    random_weighted_model,
    reachability_matrix,
    standardize,
    tdm_from_std_mlcm,
)
from maxlindag.cli import main
from maxlindag.io import (
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

    def test_missing_keys_raise(self):
        with pytest.raises(FormatError, match="missing"):
            loads_model('{"alpha": 1.0, "d": 2}')

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

    def test_non_matrix_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1\n")
        with pytest.raises(FormatError):
            write_matrix(np.zeros(3), path)
        assert path.read_text() == "1\n"


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

    def test_pattern_mismatch_is_domain_rejection(self, capsys, two_cliques_chi_file, tmp_path):
        reach = tmp_path / "bad_reach.csv"
        write_matrix(np.eye(4), reach)
        code, _, err = run(
            capsys, "recover", "--chi", two_cliques_chi_file, "--reachability", str(reach)
        )
        assert code == 1
        assert "rejected" in err


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

    def test_missing_tdm_inputs_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--tdm-on-dag")
        assert code == 2


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
        for tol in ("0", "-1", "nan", "inf", "abc"):
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
