"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_time_subtracts_direct_children_only():
    recorder = spans.Recorder(clock=ticking_clock())

    def leaf():
        return None

    def middle():
        recorder.call("mlcm.leaf", leaf, (), {})
        recorder.call("mlcm.leaf", leaf, (), {})

    recorder.call("identify.outer", lambda: recorder.call("taildep.middle", middle, (), {}), (), {})
    # clock reads: outer 0..7, middle 1..6, leaves 2..3 and 4..5
    names = [s.name for s in recorder.spans]
    assert names == ["identify.outer", "taildep.middle", "mlcm.leaf", "mlcm.leaf"]
    assert [s.parent for s in recorder.spans] == [-1, 0, 1, 1]
    assert spans.self_times(recorder.spans) == [2.0, 3.0, 1.0, 1.0]


def test_hook_time_is_excluded_from_the_caller():
    recorder = spans.Recorder(clock=ticking_clock())

    def caller():
        recorder.call("mlcm.counted", lambda: [1, 2, 3], (), {}, hook=lambda a, r: len(r))

    recorder.call("identify.caller", caller, (), {})
    counted = recorder.spans[1]
    assert counted.size == 3
    assert recorder.spans[2].name == "trace.hook" and recorder.spans[2].parent == 0
    # caller 0..5 covers counted 1..2 and the hook 3..4
    assert spans.self_times(recorder.spans)[0] == 3.0
    metrics = spans.layer_metrics(recorder.spans, passes=1)
    assert metrics["identify.self_s"] == 3.0
    assert metrics["mlcm.self_s"] == 1.0


def test_failed_calls_are_counted_and_reraised():
    recorder = spans.Recorder(clock=ticking_clock())

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        recorder.call("graph.boom", boom, (), {})
    assert spans.layer_metrics(recorder.spans, passes=1)["graph.failed"] == 1


def test_install_wraps_imported_names_and_uninstall_restores():
    lib = run.import_library()
    original = lib.identify.is_mlcm
    recorder = spans.Recorder()
    undo = spans.install(lib, recorder)
    try:
        assert lib.identify.is_mlcm is lib.mlcm.is_mlcm is lib.is_mlcm
        chi = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert lib.enumerate_all(chi)
    finally:
        spans.uninstall(undo)
    assert lib.identify.is_mlcm is original
    names = {s.name for s in recorder.spans}
    assert {"identify.enumerate_all", "mlcm.is_mlcm", "taildep.clique_initial_filter"} <= names
    metrics = spans.layer_metrics(recorder.spans, passes=1)
    assert metrics["identify.leaf_checks"] >= 1
    assert metrics["identify.models_found"] == 2


def test_metric_names_and_units_use_the_allowed_alphabet():
    layer = set(spans.layer_metrics([], passes=1)) | {"trace.passes", "trace.overhead_s"}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(declared_layer) == layer
    assert declared_e2e == run.END_TO_END
    for name in layer:
        assert declared_layer[name] == run.layer_unit(name)
    for name, unit in {**declared_layer, **declared_e2e}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_gate_counts_a_wrong_answer_as_a_failure():
    gate = workloads.Gate()
    truth = np.array([[1.0, 0.25], [0.0, 0.75]])
    assert gate.matrix("right", workloads.Outcome(truth.copy()), truth)
    assert not gate.matrix("off by 1e-6", workloads.Outcome(truth + 1e-6), truth)
    assert not gate.matrix("lost support", workloads.Outcome(np.diag([1.0, 0.75])), truth)
    assert not gate.raises("no rejection", workloads.Outcome(truth), KeyError)
    assert not gate.verdict("raised", workloads.Outcome(error=RuntimeError("x")), True)
    assert (gate.attempted, gate.failed) == (5, 4)
    assert not gate.correct


def test_an_operation_is_counted_once_however_many_passes_repeat_it():
    gate = workloads.Gate()
    truth = np.eye(2)
    for wrong_in_pass in (False, False, True):
        gate.new_pass()
        gate.matrix("same op", workloads.Outcome(truth), truth)
        gate.matrix("same op", workloads.Outcome(truth * 2 if wrong_in_pass else truth), truth)
        gate.matrix("known", workloads.Outcome(truth * 2), truth, known_defect="d >= 200")
    # three operations; the second failed only in the last pass
    assert (gate.attempted, gate.failed) == (3, 2)
    assert gate.known == {"d >= 200": 1}
    assert len(gate.unexplained) == 1


def test_known_defect_is_counted_but_does_not_clear_correct():
    gate = workloads.Gate()
    truth = np.eye(2)
    gate.matrix("recover", workloads.Outcome(truth * 2), truth, known_defect="d >= 200")
    assert (gate.attempted, gate.failed, gate.correct) == (1, 1, True)
    assert gate.known == {"d >= 200": 1}


def test_only_the_snapped_entry_cause_is_filed_as_the_known_recovery_defect():
    lib = run.import_library()
    # Node 1 -> node 2; node 2's own share of its column is below the snap tolerance.
    bbar = np.array([[1.0, 1.0 - 5e-10], [0.0, 5e-10]])
    reach = np.array([[1, 1], [0, 1]])
    case = workloads.Case("general", None, None, bbar, None, reach, [])
    label = workloads.LARGE_RECOVERY_DEFECT

    def outcome(value=None, error=None):
        return workloads.Outcome(value, error)

    snapped = np.array([[1.0, 1.0 - 5e-10], [0.0, 0.0]])
    assert workloads.snapped_entry(lib, case, outcome(snapped)) == label
    assert workloads.snapped_entry(lib, case, outcome(error=lib.NotRealizableError("x"))) == label
    wrong_first_row = np.array([[1.0, 0.5], [0.0, 5e-10]])
    assert workloads.snapped_entry(lib, case, outcome(wrong_first_row)) is None
    assert workloads.snapped_entry(lib, case, outcome(error=TypeError("x"))) is None
    assert workloads.snapped_entry(lib, case, outcome("garbage")) is None
    ordinary = workloads.Case("general", None, None, np.array([[1.0, 0.5], [0.0, 0.5]]),
                              None, reach, [])
    assert workloads.snapped_entry(lib, ordinary, outcome(error=lib.NotRealizableError("x"))) is None
