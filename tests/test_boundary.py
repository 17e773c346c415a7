"""Seeded boundary fuzz: a public call returns or raises a MaxlinError, with no warning.

Each slot puts one hostile value into one argument of a public function that
takes a matrix, a Dag or a collection, with valid values in the others.
hypothesis draws the values with ``derandomize=True``, so every run tries the
same examples, and every matrix has at most 4 rows.
"""
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import maxlindag as ml
from maxlindag import MaxlinError, ValidationError
from maxlindag.io import dumps_matrix, write_matrix

CHAIN = ml.Dag(3, {(1, 2), (2, 3)})
BBAR = ml.standardize(ml.mlcm_from_weights(ml.homogeneous_model(CHAIN, 1.0)), 1.0)
CHI = ml.tdm_from_std_mlcm(BBAR)
REACH = ml.reachability_matrix(CHAIN)

# hypothesis imports libcst to report a failing example, and libcst's import
# warns of a deprecation in mypy_extensions.  Under the suite's
# error::DeprecationWarning that would end the session instead of reporting.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

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
