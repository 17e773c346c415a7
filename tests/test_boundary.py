"""Seeded boundary fuzz: a public call returns or raises a MaxlinError, with no warning.

Each slot puts one hostile value into one argument of a public function that
takes a matrix, a Dag, a collection, a scalar, or the text, model or path of
a file format, with valid values in the others.  hypothesis draws the values
with ``derandomize=True``, so every run tries the same examples, and every
matrix has at most 4 rows.
"""
import os
import subprocess
import sys
import warnings
from importlib.util import find_spec

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import maxlindag as ml
from maxlindag import MaxlinError, ValidationError
from maxlindag import io
from maxlindag.io import dumps_matrix, write_matrix

CHAIN = ml.Dag(3, {(1, 2), (2, 3)})
BBAR = ml.standardize(ml.mlcm_from_weights(ml.homogeneous_model(CHAIN, 1.0)), 1.0)
CHI = ml.tdm_from_std_mlcm(BBAR)
REACH = ml.reachability_matrix(CHAIN)

MATRIX_SLOTS = {
    "is_reachability_matrix": ml.is_reachability_matrix,
    "dag_from_reachability": ml.dag_from_reachability,
    "sign_pattern": ml.sign_pattern,
    "standardize": lambda m: ml.standardize(m, 1.0),
    "destandardize": lambda m: ml.destandardize(m, 1.0, 1.0),
    "max_weighted_triple": lambda m: ml.max_weighted_triple(m, 1, 2, 3),
    "is_mlcm": ml.is_mlcm,
    "is_rmwm_mlcm": ml.is_rmwm_mlcm,
    "minimum_ml_dag": ml.minimum_ml_dag,
    "model_from_std_mlcm": lambda m: ml.model_from_std_mlcm(m, 1.0),
    "validate_tdm": ml.validate_tdm,
    "tdm_from_std_mlcm": ml.tdm_from_std_mlcm,
    "independence_pattern_check chi": lambda m: ml.independence_pattern_check(m, REACH),
    "independence_pattern_check reach": lambda m: ml.independence_pattern_check(CHI, m),
    "chi_complement_graph": ml.chi_complement_graph,
    "maximum_chi_cliques": ml.maximum_chi_cliques,
    "clique_initial_filter": lambda m: ml.clique_initial_filter(m, [1]),
    "lambda_representation": lambda m: ml.lambda_representation(CHAIN, m, 1, 3),
    "mu_representation": lambda m: ml.mu_representation(CHAIN, m, 2, 3),
    "check_rmwm_tdm": lambda m: ml.check_rmwm_tdm(CHAIN, m),
    "recover_from_ordering": lambda m: ml.recover_from_ordering(m, (1, 2, 3)),
    "recover_from_reachability chi": lambda m: ml.recover_from_reachability(m, REACH),
    "recover_from_reachability reach": lambda m: ml.recover_from_reachability(CHI, m),
    "ordering_from_initials": lambda m: ml.ordering_from_initials(m, [1]),
    "recover_rmwm_from_initials": lambda m: ml.recover_rmwm_from_initials(m, [1]),
    "initial_bijection": lambda m: ml.initial_bijection(m, [1], [1]),
    "enumerate_all": ml.enumerate_all,
    "enumerate_all_rmwm": ml.enumerate_all_rmwm,
    "rmwm_equivalence_constraints": lambda m: ml.rmwm_equivalence_constraints(m, [1], [1], CHAIN),
    "dumps_matrix": dumps_matrix,
    "write_matrix": lambda m: write_matrix(m, os.devnull),
}

DAG_SLOTS = {
    "WeightedModel": lambda g: ml.WeightedModel(g, {}, (1.0, 1.0, 1.0), 1.0),
    "reachability_matrix": ml.reachability_matrix,
    "ancestral_sets": lambda g: ml.ancestral_sets(g, 1),
    "transitive_reduction": ml.transitive_reduction,
    "causal_orderings": lambda g: list(ml.causal_orderings(g)),
    "validate_causal_ordering": lambda g: ml.validate_causal_ordering(g, (1, 2, 3)),
    "homogeneous_model": lambda g: ml.homogeneous_model(g, 1.0),
    "check_rmwm_tdm": lambda g: ml.check_rmwm_tdm(g, CHI),
    "lambda_coefficients": lambda g: ml.lambda_coefficients(g, 3),
    "lambda_representation": lambda g: ml.lambda_representation(g, CHI, 1, 3),
    "mu_coefficients": lambda g: ml.mu_coefficients(g, 2, 3),
    "mu_representation": lambda g: ml.mu_representation(g, CHI, 2, 3),
    "lowest_common_ancestors": lambda g: ml.lowest_common_ancestors(g, 2, 3),
    "rmwm_equivalence_constraints": lambda g: ml.rmwm_equivalence_constraints(CHI, [1], [1], g),
}

COLLECTION_SLOTS = {
    "Dag edges": lambda c: ml.Dag(3, c),
    "CausalOrdering": ml.CausalOrdering,
    "CausalOrdering.from_node_order": ml.CausalOrdering.from_node_order,
    "validate_causal_ordering": lambda c: ml.validate_causal_ordering(CHAIN, c),
    "recover_from_ordering": lambda c: ml.recover_from_ordering(CHI, c),
    "clique_initial_filter": lambda c: ml.clique_initial_filter(CHI, c),
    "ordering_from_initials": lambda c: ml.ordering_from_initials(CHI, c),
    "recover_rmwm_from_initials": lambda c: ml.recover_rmwm_from_initials(CHI, c),
    "initial_bijection": lambda c: ml.initial_bijection(CHI, c, [1]),
    "rmwm_equivalence_constraints": lambda c: ml.rmwm_equivalence_constraints(CHI, [1], c, CHAIN),
    "noise scales": lambda c: ml.WeightedModel(CHAIN, {(1, 2): 1.0, (2, 3): 1.0}, c, 1.0),
}

# One hostile cell in an otherwise valid matrix.
CELLS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 1 + 2j, "0.5", "x",
         10**400, -(10**400), True, None]
# Values of the wrong shape or kind altogether.
SHAPES = [None, True, 0.5, "chi", [], [[]], np.empty((0, 0)), np.ones(3),
          np.ones((2, 2, 2)), np.eye(3, dtype=bool), np.eye(3, dtype=complex)]


def _bases(d: int) -> list[np.ndarray]:
    return [np.eye(d), np.triu(np.ones((d, d)))] + ([CHI, BBAR, REACH] if d == 3 else [])


@st.composite
def hostile_matrices(draw):
    kind = draw(st.sampled_from(["cell", "ragged", "shape", "floats"]))
    if kind == "shape":
        return draw(st.sampled_from(SHAPES))
    d = draw(st.integers(2 if kind == "ragged" else 1, 4))
    if kind == "floats":  # NaN, infinities, subnormals, -0.0 and huge values included
        return draw(arrays(float, (d, d), elements=st.floats(width=64)))
    rows = draw(st.sampled_from(_bases(d))).tolist()
    i = draw(st.integers(0, d - 1))
    if kind == "ragged":
        rows[i] = rows[i] + [0.0] if draw(st.booleans()) else rows[i][1:]
        return rows
    rows[i][draw(st.integers(0, d - 1))] = draw(st.sampled_from(CELLS))
    form = draw(st.sampled_from([list, np.array, lambda rows: np.array(rows, dtype=object)]))
    return form(rows)


OTHER_VALUES = [None, True, 3, 2.5, "abc", {1: 2}, [None], [1.5], [True], [10**400],
                [(1, 2, 3)], [[1, 2], [3]], ml.Dag(2), ml.Dag(4), CHAIN.edges,
                ml.CausalOrdering((1, 2, 3)), ml.homogeneous_model(CHAIN, 1.0)]
hostile_values = st.one_of(hostile_matrices(), st.sampled_from(OTHER_VALUES))


def returns_or_raises_a_library_error(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(value)
        except MaxlinError:
            pass


@pytest.mark.parametrize("name", list(MATRIX_SLOTS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(value=hostile_matrices())
def test_a_hostile_matrix_is_answered_or_rejected(name, value):
    returns_or_raises_a_library_error(MATRIX_SLOTS[name], value)


@pytest.mark.parametrize("name", list(DAG_SLOTS))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(value=hostile_values)
def test_a_hostile_dag_is_answered_or_rejected(name, value):
    returns_or_raises_a_library_error(DAG_SLOTS[name], value)


@pytest.mark.parametrize("name", list(COLLECTION_SLOTS))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(value=hostile_values)
def test_a_hostile_collection_is_answered_or_rejected(name, value):
    returns_or_raises_a_library_error(COLLECTION_SLOTS[name], value)


# The four kinds that numpy's conversion leaked, each with the end of its message.
LEAKS = {
    "ragged": ([[1.0, 0.0], [0.0]], "is ragged: its rows differ in length"),
    "strings": (np.array([["1", "0"], ["0", "1"]]), "must hold real numbers, got dtype <U1"),
    "complex": (np.eye(2) + np.array([[0, 2j], [0, 0]]),
                "must hold real numbers, got dtype complex128"),
    "integer beyond float64": ([[1, 10**400], [0, 1]], "has a value beyond float64"),
}


@pytest.mark.parametrize("kind", list(LEAKS))
@pytest.mark.parametrize("name", list(MATRIX_SLOTS))
def test_each_leak_kind_is_a_validation_error(name, kind):
    value, ending = LEAKS[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as exc:
            MATRIX_SLOTS[name](value)
    assert str(exc.value).endswith(ending)


@pytest.mark.parametrize("name", list(DAG_SLOTS))
def test_none_for_a_dag_is_a_validation_error(name):
    with pytest.raises(ValidationError, match="^dag must be a Dag, got NoneType$"):
        DAG_SLOTS[name](None)


@pytest.mark.parametrize("call, message", [
    (lambda: ml.Dag(3, None), "edges must be a collection of node pairs, got None"),
    (lambda: ml.CausalOrdering(None), "positions must be a collection of nodes, got None"),
    (lambda: ml.CausalOrdering.from_node_order(None),
     "node order must be a collection of nodes, got None"),
    (lambda: ml.recover_from_ordering(CHI, None),
     "positions must be a collection of nodes, got None"),
    (lambda: ml.WeightedModel(CHAIN, {(1, 2): 1.0, (2, 3): 1.0}, None, 1.0),
     "noise scales must be a collection of numbers, got None"),
], ids=["Dag", "CausalOrdering", "from_node_order", "recover_from_ordering", "noise scales"])
def test_none_for_a_collection_is_a_validation_error(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


def test_valid_arrays_of_every_real_kind_read_alike():
    # Bools, integers, floats, an object array of reals and nested lists give
    # the same answers; a bool reachability matrix is read as it is.
    expected = ml.is_mlcm(BBAR)
    for form in (BBAR.tolist(), np.array(BBAR.tolist(), dtype=object), BBAR.astype(np.float32)):
        assert ml.is_mlcm(form).ok == expected.ok
    for form in (REACH, REACH.astype(bool), REACH.astype(np.uint8), REACH.astype(float),
                 REACH.tolist(), np.array(REACH.tolist(), dtype=object)):
        assert ml.is_reachability_matrix(form)
        assert ml.dag_from_reachability(form) == ml.dag_from_reachability(REACH)
    assert dumps_matrix(np.array(BBAR.tolist(), dtype=object)) == dumps_matrix(BBAR)


@pytest.mark.parametrize("call, message", [
    (lambda: ml.validate_tdm([[1.0, -1e308], [1e308, 1.0]]),
     "matrix is asymmetric at entry (1,2): -1e+308 vs 1e+308"),
    (lambda: ml.model_from_std_mlcm([[5e-324, 1.0], [0.0, 1.0]], 1.0),
     "edge weights must be finite and strictly positive"),
], ids=["asymmetry beyond float64", "edge weight beyond float64"])
def test_a_difference_or_weight_beyond_float64_raises_without_a_warning(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as exc:
            call()
    assert str(exc.value) == message


MODEL = ml.homogeneous_model(CHAIN, 1.0)
B = ml.mlcm_from_weights(MODEL)
PARETO = ml.NoiseSpec("pareto", 1.0)
BLOCK = ml.sample(MODEL, PARETO, 1000, 1)
WEIGHTS = {(1, 2): 1.0, (2, 3): 1.0}

SCALAR_SLOTS = {
    "tol is_mlcm": lambda v: ml.is_mlcm(BBAR, v),
    "tol recover_from_ordering": lambda v: ml.recover_from_ordering(CHI, (1, 2, 3), v),
    "tol clique_initial_filter": lambda v: ml.clique_initial_filter(CHI, [1], v),
    "tol check_rmwm_tdm": lambda v: ml.check_rmwm_tdm(CHAIN, CHI, v),
    "tol enumerate_all_rmwm": lambda v: ml.enumerate_all_rmwm(CHI, v),
    "tail index standardize": lambda v: ml.standardize(B, v),
    "tail index destandardize": lambda v: ml.destandardize(BBAR, 1.0, v),
    "tail index homogeneous_model": lambda v: ml.homogeneous_model(CHAIN, v),
    "tail index model_from_std_mlcm": lambda v: ml.model_from_std_mlcm(BBAR, v),
    "tail index WeightedModel": lambda v: ml.WeightedModel(CHAIN, WEIGHTS, (1.0, 1.0, 1.0), v),
    "tail index NoiseSpec": lambda v: ml.NoiseSpec("pareto", v),
    "tail index random_weighted_model": lambda v: ml.random_weighted_model(3, alpha=v),
    "betas": lambda v: ml.destandardize(BBAR, v, 1.0),
    "betas, one of three": lambda v: ml.destandardize(BBAR, (1.0, v, 1.0), 1.0),
    "edge weight": lambda v: ml.WeightedModel(CHAIN, {(1, 2): v, (2, 3): 1.0}, (1, 1, 1), 1.0),
    "weight_range": lambda v: ml.random_weighted_model(3, weight_range=v),
    "weight_range hi": lambda v: ml.random_weighted_model(3, weight_range=(0.5, v)),
    "density random_dag": lambda v: ml.random_dag(3, v, 0),
    "density random_weighted_model": lambda v: ml.random_weighted_model(3, density=v),
    "seed random_dag": lambda v: ml.random_dag(3, 0.5, v),
    "seed random_polytree": lambda v: ml.random_polytree(3, v),
    "seed random_weighted_model": lambda v: ml.random_weighted_model(3, seed_or_rng=v),
    "seed sample": lambda v: ml.sample(MODEL, PARETO, 4, v),
    "seed scaled_block_maxima": lambda v: ml.scaled_block_maxima(MODEL, PARETO, 2, 2, v),
    "node count Dag": ml.Dag,
    "node count random_dag": lambda v: ml.random_dag(v, 0.5, 0),
    "node count random_polytree": lambda v: ml.random_polytree(v, 0),
    "sample size": lambda v: ml.sample(MODEL, PARETO, v, 1),
    "block count": lambda v: ml.scaled_block_maxima(MODEL, PARETO, 2, v, 1),
    "block size": lambda v: ml.scaled_block_maxima(MODEL, PARETO, v, 2, 1),
    "max_d": lambda v: ml.enumerate_all(CHI, max_d=v),
    "node Dag edge": lambda v: ml.Dag(3, [(v, 2)]),
    "node ancestral_sets": lambda v: ml.ancestral_sets(CHAIN, v),
    "node lambda_representation": lambda v: ml.lambda_representation(CHAIN, CHI, 1, v),
    "node mu_representation": lambda v: ml.mu_representation(CHAIN, CHI, v, 3),
    "node max_weighted_triple": lambda v: ml.max_weighted_triple(BBAR, v, 2, 3),
    "node limit_cdf": lambda v: ml.limit_cdf(MODEL, 1.0, i=v),
    "limit": lambda v: list(ml.causal_orderings(CHAIN, v)),
    "noise family": lambda v: ml.NoiseSpec(v, 1.0),
    "u": lambda v: ml.empirical_tdm(BLOCK, v),
    "limit_cdf point": lambda v: ml.limit_cdf(MODEL, v, i=1),
    "limit_cdf pair point": lambda v: ml.limit_cdf(MODEL, (1.0, v), i=1, j=2),
    "flag polytree": lambda v: ml.random_weighted_model(3, polytree=v),
    "flag homogeneous": lambda v: ml.random_weighted_model(3, homogeneous=v),
}

# Every kind a scalar argument has leaked or might: numpy scalars of every
# width, ragged lists, integers beyond float64 and beyond the 4300 digits
# that repr allows, NaN, infinities, bools, strings and complex numbers.
# No integer lies between 3 and 2**63, so that no slot allocates much.
# hypothesis cannot show a value that repr refuses, so it draws from SHOWN.
SHOWN = [np.float16(0.5), np.float32(0.5), np.float16(np.inf), np.float32(np.nan),
         np.float32(-1.5), np.float16(6e-8), np.longdouble(0.5), np.int8(-1), np.int64(2),
         np.uint64(2**64 - 1), np.bool_(True), np.complex64(1), np.str_("pareto"),
         [[1, 2], [3]], [[0.5], 2.0], (0.5, 2.0), (), 2, 3, 2**63, 10**400, -(10**400),
         np.nan, np.inf, -np.inf, -0.0, 0, -1, 5e-324, 0.5, 1e308,
         True, False, "0.5", "pareto", "", 1 + 2j, None]
SCALARS = SHOWN + [10**5000, -(10**5000)]
hostile_scalars = st.one_of(
    st.sampled_from(SHOWN),
    st.floats(width=16).map(np.float16),
    st.floats(width=32).map(np.float32),
    st.floats(),
)


@pytest.mark.parametrize("name", list(SCALAR_SLOTS))
def test_every_listed_scalar_is_answered_or_rejected(name):
    for value in SCALARS:
        returns_or_raises_a_library_error(SCALAR_SLOTS[name], value)


@pytest.mark.parametrize("name", list(SCALAR_SLOTS))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(value=hostile_scalars)
def test_a_hostile_scalar_is_answered_or_rejected(name, value):
    returns_or_raises_a_library_error(SCALAR_SLOTS[name], value)


def test_a_numpy_scalar_reads_as_its_python_value():
    # float16 and float32 arguments answer as the Python floats they hold,
    # with no overflow warning from a comparison with the largest float64.
    cases = [
        (lambda a: ml.standardize(B, a), 0.5),
        (lambda a: ml.destandardize(BBAR, 1.0, a), 0.5),
        (lambda b: ml.destandardize(BBAR, b, 1.0), 0.5),
        (lambda b: ml.destandardize(BBAR, (1.0, b, 1.0), 1.0), 0.5),
        (lambda a: ml.mlcm_from_weights(ml.homogeneous_model(CHAIN, a)), 0.5),
        (lambda a: ml.mlcm_from_weights(ml.model_from_std_mlcm(BBAR, a)), 0.5),
        (lambda c: ml.mlcm_from_weights(
            ml.WeightedModel(CHAIN, {(1, 2): c, (2, 3): 1.0}, (1.0, 1.0, 1.0), 1.0)), 0.5),
        (lambda a: ml.NoiseSpec("pareto", a).alpha, 0.5),
        (lambda c: ml.mlcm_from_weights(ml.random_weighted_model(3, weight_range=(c, 2.0))), 0.5),
        (lambda a: ml.mlcm_from_weights(ml.random_weighted_model(3, alpha=a)), 0.5),
    ]
    for call, value in cases:
        expected = call(value)
        for kind in (np.float16, np.float32):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(call(kind(value)), expected)


@pytest.mark.parametrize("call, message", [
    (lambda: ml.destandardize(BBAR, [[1, 2], [3]], 1.0),
     "column scalings must be finite and strictly positive"),
    (lambda: ml.random_weighted_model(3, weight_range=[[1, 2], [3]]),
     "weight range (0 < lo <= hi < inf) must be finite and strictly positive"),
    (lambda: ml.NoiseSpec(10**5000, 1.0),
     "unsupported noise family <integer of 5001 digits>; use ('pareto', 'frechet')"),
    (lambda: ml.NoiseSpec(None, 1.0), "unsupported noise family None; use ('pareto', 'frechet')"),
], ids=["ragged betas", "ragged weight range", "family beyond 4300 digits", "family None"])
def test_a_scalar_argument_is_read_by_its_rule_alone(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as exc:
            call()
    assert str(exc.value) == message


def test_a_limit_beyond_sys_maxsize_is_no_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for limit in (sys.maxsize, sys.maxsize + 1, 2**63, 10**400):
            assert list(ml.causal_orderings(ml.Dag(3), limit)) == list(ml.causal_orderings(ml.Dag(3)))


def test_a_limit_cdf_term_beyond_float64_gives_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ml.limit_cdf(MODEL, 5e-324, i=1) == 0.0
        assert ml.limit_cdf(MODEL, (5e-324, 1.0), i=1, j=2) == 0.0
        assert ml.limit_cdf(ml.homogeneous_model(CHAIN, 2.0), 1e-200, i=3) == 0.0


# The text and model arguments of the file formats take any hostile value; a
# path argument takes values that are no path, since a string names a file.
IO_SLOTS = {
    "loads_matrix text": io.loads_matrix,
    "loads_model text": io.loads_model,
    "dumps_model model": io.dumps_model,
    "write_model model": lambda v: io.write_model(v, os.devnull),
    "model_to_dot model": io.model_to_dot,
}
PATH_SLOTS = {
    "read_matrix path": io.read_matrix,
    "read_model path": io.read_model,
    "write_matrix path": lambda v: write_matrix(BBAR, v),
    "write_model path": lambda v: io.write_model(MODEL, v),
}


class _BytesPath:
    def __fspath__(self):
        return b"chi.csv"


NOT_PATHS = [None, True, 3, 2.5, np.float32(1), b"chi.csv", bytearray(b"chi.csv"), _BytesPath(),
             {1: 2}, [None], ["chi.csv"], ("chi.csv",), BBAR, MODEL, CHAIN]


@pytest.mark.parametrize("name", list(IO_SLOTS))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(value=st.one_of(hostile_values, st.sampled_from([b"1,0", bytearray(b"{}"), "1,0\n0,1"])))
def test_a_hostile_io_argument_is_answered_or_rejected(name, value):
    returns_or_raises_a_library_error(IO_SLOTS[name], value)


@pytest.mark.parametrize("name", list(PATH_SLOTS))
def test_a_value_that_is_no_path_is_rejected(name):
    for value in NOT_PATHS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                PATH_SLOTS[name](value)
        assert str(exc.value) == f"path must be a str or a path, got {type(value).__name__}"


@pytest.mark.parametrize("call, message", [
    (lambda: io.loads_matrix(None), "matrix text must be a str, got NoneType"),
    (lambda: io.loads_matrix(b"1,0"), "matrix text must be a str, got bytes"),
    (lambda: io.loads_model(b"{}"), "model text must be a str, got bytes"),
    (lambda: io.read_matrix(None), "path must be a str or a path, got NoneType"),
    (lambda: io.dumps_model(None), "model must be a WeightedModel, got NoneType"),
    (lambda: io.model_to_dot(None), "model must be a WeightedModel, got NoneType"),
    (lambda: ml.random_weighted_model(3, polytree="no"), "polytree must be a bool, got 'no'"),
    (lambda: ml.random_weighted_model(3, homogeneous="no"),
     "homogeneous must be a bool, got 'no'"),
    (lambda: ml.random_weighted_model(3, polytree=1), "polytree must be a bool, got 1"),
], ids=["loads_matrix None", "loads_matrix bytes", "loads_model bytes", "read_matrix None",
        "dumps_model None", "model_to_dot None", "polytree", "homogeneous", "polytree 1"])
def test_an_io_argument_or_flag_is_read_by_its_rule(call, message):
    # The None and bytes matrix calls and the model calls once raised
    # AttributeError or TypeError, bytes model text went on to the JSON
    # parser, and the flags drew a model.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as exc:
            call()
    assert str(exc.value) == message


def test_numpy_bools_are_flags():
    for flag in ("polytree", "homogeneous"):
        for value in (True, False):
            expected = ml.random_weighted_model(5, seed_or_rng=3, **{flag: value})
            got = ml.random_weighted_model(5, seed_or_rng=3, **{flag: np.bool_(value)})
            assert io.dumps_model(got) == io.dumps_model(expected)


def test_a_path_object_is_a_path(tmp_path):
    io.write_model(MODEL, tmp_path / "model.json")
    assert io.dumps_model(io.read_model(tmp_path / "model.json")) == io.dumps_model(MODEL)
    write_matrix(BBAR, tmp_path / "bbar.csv")
    assert io.read_matrix(tmp_path / "bbar.csv").tobytes() == BBAR.tobytes()


def test_libcst_imports_under_the_suite_filters(pytestconfig):
    # hypothesis imports libcst to report a failing example.  A fresh
    # interpreter imports it under the suite's own warning filters, which
    # must not turn its import into an error.
    if find_spec("libcst") is None:
        pytest.skip("libcst is not installed")
    flags = [arg for f in pytestconfig.getini("filterwarnings") for arg in ("-W", f)]
    result = subprocess.run([sys.executable, *flags, "-c", "import libcst"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
