import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cases import DENSE4_EDGES
from maxlindag import (
    CausalOrdering,
    CycleError,
    Dag,
    NoiseSpec,
    ValidationError,
    WeightedModel,
    ancestral_sets,
    causal_orderings,
    clique_initial_filter,
    dag_from_reachability,
    independence_pattern_check,
    initial_bijection,
    is_reachability_matrix,
    enumerate_all,
    max_weighted_triple,
    ordering_from_initials,
    random_dag,
    random_weighted_model,
    reachability_matrix,
    recover_from_ordering,
    recover_from_reachability,
    recover_rmwm_from_initials,
    rmwm_equivalence_constraints,
    sample,
    scaled_block_maxima,
    tdm_from_std_mlcm,
    transitive_reduction,
    validate_causal_ordering,
)


class TestDagConstruction:
    def test_cycle_is_a_hard_error(self):
        with pytest.raises(CycleError):
            Dag(3, {(1, 2), (2, 3), (3, 1)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Dag(2, {(1, 1)})

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValidationError):
            Dag(2, {(1, 3)})

    def test_nonpositive_node_count_rejected(self):
        with pytest.raises(ValidationError):
            Dag(0)

    @pytest.mark.parametrize("edges", [[(1, 2, 3)], [1], [(1,)], ["123"]],
                             ids=["triple", "int", "single", "str"])
    def test_an_edge_is_a_pair_of_nodes(self, edges):
        with pytest.raises(ValidationError, match="is not a pair of nodes"):
            Dag(3, edges)
        with pytest.raises(ValidationError, match="is not a pair of nodes"):
            WeightedModel(Dag(3, {(1, 2)}), dict.fromkeys(edges, 0.5), (1.0,) * 3, 1.0)

    def test_duplicate_edges_collapse(self):
        dag = Dag(2, [(1, 2), (1, 2)])
        assert dag.edges == frozenset({(1, 2)})

    def test_equality_ignores_caches(self):
        assert Dag(3, {(1, 2)}) == Dag(3, {(1, 2)})
        assert Dag(3, {(1, 2)}) != Dag(3, {(2, 1)})


# Each call takes a node on three nodes.  Node 0 once wrapped to node 3 in
# initial_bijection, and 2.5 was truncated to 2; WeightedModel once read the
# edge-weight keys (2.5, 2), (True, 2) and ("2", 2) as integers.
CHAIN3_BBAR = np.array([[1.0, 0.5, 0.25], [0.0, 0.5, 0.25], [0.0, 0.0, 0.5]])
BAD_NODE_CALLS = {
    "edge": lambda v: Dag(3, {(1, v)}),
    "parents": lambda v: Dag(3, {(1, 2)}).parents(v),
    "descendants": lambda v: Dag(3, {(1, 2)}).descendants_closed(v),
    "positions": lambda v: CausalOrdering((1, 2, v)),
    "from_node_order": lambda v: CausalOrdering.from_node_order([v, 2, 3]),
    "position": lambda v: CausalOrdering((1, 2, 3)).position(v),
    "max_weighted_triple": lambda v: max_weighted_triple(CHAIN3_BBAR, 1, v, 3),
    "clique": lambda v: clique_initial_filter(np.eye(3), [1, v]),
    "initial_bijection": lambda v: initial_bijection(np.eye(3), [v], [1]),
    "edge_weight": lambda v: WeightedModel(Dag(3, {(1, 2)}), {(v, 2): 0.5}, (1.0,) * 3, 1.0),
}


@pytest.mark.parametrize("node", [0, 2.5, True, np.int64(4), "2"],
                         ids=["0", "2.5", "True", "int64-4", "str-2"])
@pytest.mark.parametrize("call", list(BAD_NODE_CALLS), ids=list(BAD_NODE_CALLS))
def test_a_node_is_an_integer_in_range(call, node):
    with pytest.raises(ValidationError, match="is not an integer in 1..3"):
        BAD_NODE_CALLS[call](node)


# Each call reads a set of initial nodes (or a clique) on the chain 1 -> 2 -> 3,
# whose chi is positive everywhere.  Before one rule covered them all,
# initial_bijection returned {} for two empty sets,
# rmwm_equivalence_constraints took a dependent pair as a set, and an
# integer raised a bare TypeError.
CHAIN3 = Dag(3, {(1, 2), (2, 3)})
CHAIN3_CHI = tdm_from_std_mlcm(CHAIN3_BBAR)
NODE_SET_CALLS = {
    "clique": lambda s: clique_initial_filter(CHAIN3_CHI, s),
    "ordering_from_initials": lambda s: ordering_from_initials(CHAIN3_CHI, s),
    "recover_rmwm_from_initials": lambda s: recover_rmwm_from_initials(CHAIN3_CHI, s),
    "initial_bijection": lambda s: initial_bijection(CHAIN3_CHI, s, s),
    "initial_bijection_other": lambda s: initial_bijection(CHAIN3_CHI, [3], s),
    "equivalence": lambda s: rmwm_equivalence_constraints(CHAIN3_CHI, s, s, CHAIN3),
    "equivalence_other": lambda s: rmwm_equivalence_constraints(CHAIN3_CHI, [1], s, CHAIN3),
}


@pytest.mark.parametrize("nodes,message", [
    ([], r"no (initial nodes|clique) given"),
    ([1, 3], "nodes 1 and 3 have positive tail dependence"),
    (1, "must be a collection of nodes, got 1"),
    (np.int64(1), "must be a collection of nodes, got 1"),
], ids=["empty", "dependent-pair", "int", "int64"])
@pytest.mark.parametrize("call", list(NODE_SET_CALLS), ids=list(NODE_SET_CALLS))
def test_a_node_set_is_nonempty_and_independent(call, nodes, message):
    with pytest.raises(ValidationError, match=message):
        NODE_SET_CALLS[call](nodes)


# Each call reads a reachability matrix.  Before one rule covered them all,
# independence_pattern_check returned a verdict for each of these.
REACH_CALLS = {
    "dag_from_reachability": dag_from_reachability,
    "independence_pattern_check": lambda r: independence_pattern_check(CHAIN3_CHI, r),
    "recover_from_reachability": lambda r: recover_from_reachability(CHAIN3_CHI, r),
}


@pytest.mark.parametrize("matrix", [
    2 * reachability_matrix(CHAIN3),
    np.ones((3, 3), dtype=int),
    np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
], ids=["twice-R", "all-ones", "intransitive"])
@pytest.mark.parametrize("call", list(REACH_CALLS), ids=list(REACH_CALLS))
def test_a_reachability_input_is_a_reachability_matrix(call, matrix):
    with pytest.raises(ValidationError, match="reachability input is not a reachability matrix"):
        REACH_CALLS[call](matrix)


def test_numpy_integer_nodes_are_accepted():
    assert Dag(3, {(np.int64(1), np.int32(2))}).parents(np.int64(2)) == {1}
    assert CausalOrdering.from_node_order(np.array([3, 1, 2])).position(np.int64(3)) == 1
    assert max_weighted_triple(CHAIN3_BBAR, np.int64(1), 2, 3).ok


# Each call takes a count.  Before one rule covered them all, sample drew
# two rows for 2.5 and one for True, Dag(True) was a one-node DAG, and
# random_weighted_model and scaled_block_maxima failed inside numpy on 2.5.
_MODEL = random_weighted_model(2, seed_or_rng=0)
_NOISE = NoiseSpec("frechet", 1.0)
COUNT_CALLS = {
    "Dag": lambda n: Dag(n),
    "random_weighted_model": lambda n: random_weighted_model(n, seed_or_rng=1),
    "random_weighted_model_polytree": lambda n: random_weighted_model(n, polytree=True),
    "random_dag": lambda n: random_dag(n, 0.5, 1),
    "sample": lambda n: sample(_MODEL, _NOISE, n, 1),
    "block_size": lambda n: scaled_block_maxima(_MODEL, _NOISE, n, 4, 1),
    "n_blocks": lambda n: scaled_block_maxima(_MODEL, _NOISE, 4, n, 1),
    "max_d": lambda n: enumerate_all(np.eye(2), max_d=n),
    "causal_orderings": lambda n: causal_orderings(Dag(2), n),
}
# A count that may be None, which means no limit.  causal_orderings yielded
# nothing for 0 and -1 and one ordering for True, and raised islice's
# ValueError for 2.5.
OPTIONAL_COUNTS = {"causal_orderings"}


@pytest.mark.parametrize("count", [0, -1, 2.5, True, np.float64(3.0), np.bool_(True), "3", None],
                         ids=["0", "-1", "2.5", "True", "float64-3", "bool_-True", "str-3", "None"])
@pytest.mark.parametrize("call", list(COUNT_CALLS), ids=list(COUNT_CALLS))
def test_a_count_is_an_integer_of_at_least_one(call, count):
    if count is None and call in OPTIONAL_COUNTS:
        COUNT_CALLS[call](count)
        return
    with pytest.raises(ValidationError, match="must be an integer of at least 1"):
        COUNT_CALLS[call](count)


@pytest.mark.parametrize("call", list(COUNT_CALLS), ids=list(COUNT_CALLS))
def test_numpy_integer_counts_are_accepted(call):
    COUNT_CALLS[call](np.int64(2))


# Node counts whose d x d reachability matrix numpy cannot shape.  Never
# try a count that passes this rule but is large: it would be allocated.
@pytest.mark.parametrize("count, shown", [(10**5000, "<integer of 5001 digits>"),
                                          (2**32, "4294967296")], ids=["10^5000", "2^32"])
@pytest.mark.parametrize("call", ["Dag", "random_dag", "random_weighted_model",
                                  "random_weighted_model_polytree"])
def test_a_node_count_beyond_a_numpy_array_raises_before_any_allocation(call, count, shown):
    with pytest.raises(ValidationError) as exc:
        COUNT_CALLS[call](count)
    assert str(exc.value) == f"node count {shown} is too large for a d x d numpy array"


class TestAncestralSets:
    def test_dense4_ancestors_of_sink(self):
        dag = Dag(4, DENSE4_EDGES)
        sets = ancestral_sets(dag, 4)
        assert sets.an == {1, 2, 3}
        assert sets.An == {1, 2, 3, 4}
        assert sets.pa == {1, 2, 3}
        assert sets.de == set()

    def test_single_node(self):
        sets = ancestral_sets(Dag(1), 1)
        assert sets.an == set()
        assert sets.An == {1}

    def test_chain_composes_paths(self):
        dag = Dag(3, {(1, 2), (2, 3)})
        assert ancestral_sets(dag, 3).An == {1, 2, 3}
        assert dag.descendants(1) == {2, 3}
        assert dag.parents(3) == {2}

    def test_node_out_of_range(self):
        with pytest.raises(ValidationError):
            ancestral_sets(Dag(2, {(1, 2)}), 3)

    def test_initial_and_terminal_nodes(self):
        dag = Dag(4, DENSE4_EDGES)
        assert dag.initial_nodes() == {1, 2}
        assert dag.terminal_nodes() == {4}


class TestReachability:
    def test_two_node_edge(self):
        assert reachability_matrix(Dag(2, {(1, 2)})).tolist() == [[1, 1], [0, 1]]

    def test_edgeless_is_identity(self):
        assert np.array_equal(reachability_matrix(Dag(3)), np.eye(3, dtype=int))

    def test_dense4_sink_column_all_ones(self):
        reach = reachability_matrix(Dag(4, DENSE4_EDGES))
        assert reach[:, 3].tolist() == [1, 1, 1, 1]
        assert np.array_equal(reach, oracles.reachability(4, set(DENSE4_EDGES)))

    def test_matches_bruteforce_and_is_transitively_closed(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            d = int(rng.integers(1, 9))
            dag = random_dag(d, float(rng.uniform(0, 1)), rng)
            reach = reachability_matrix(dag)
            assert np.array_equal(reach, oracles.reachability(d, set(dag.edges)))
            assert (np.diag(reach) == 1).all()
            closure = (reach @ reach) > 0
            assert (reach[closure] == 1).all()

    def test_round_trip_through_dag_from_reachability(self):
        dag = Dag(4, DENSE4_EDGES)
        reach = reachability_matrix(dag)
        assert np.array_equal(reachability_matrix(dag_from_reachability(reach)), reach)

    @pytest.mark.parametrize("dag, shown", [(None, "NoneType"), (np.eye(2), "ndarray")])
    def test_a_dag_of_another_type_is_rejected(self, dag, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                reachability_matrix(dag)
        assert str(exc.value) == f"dag must be a Dag, got {shown}"

    def test_is_reachability_matrix_rejects_intransitive(self):
        m = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert not is_reachability_matrix(m)
        m[0, 2] = 1
        assert is_reachability_matrix(m)
        assert not is_reachability_matrix(np.array([[1, 1], [1, 1]]))


class TestReachabilityGateAgainstOracle:
    """The support gate gives the verdict of its frozen int64 version."""

    @staticmethod
    def verdict(m) -> bool:
        ours = is_reachability_matrix(m)
        assert ours == oracles.is_reachability_matrix(m), m
        return ours

    def test_every_0_1_matrix_up_to_d_3(self):
        # The labelled partial orders on 0..3 elements: 1, 1, 3 and 19.
        for d, posets in enumerate((1, 1, 3, 19)):
            passed = 0
            for bits in itertools.product((0, 1), repeat=d * d):
                m = np.array(bits, dtype=np.int64).reshape(d, d)
                passed += self.verdict(m)
                assert self.verdict(m.astype(bool)) == self.verdict(m.astype(float))
            assert passed == posets

    def test_random_reachabilities_and_one_bit_flips(self):
        rng = np.random.default_rng(24)
        verdicts = set()
        for d in range(4, 31):
            reach = reachability_matrix(random_dag(d, float(rng.uniform(0.05, 0.5)), rng))
            for _ in range(4):
                flipped = reach.copy()
                flipped[tuple(rng.integers(0, d, 2))] ^= 1
                for m in (reach, flipped):
                    for dtype in (bool, np.int64, float, object):
                        verdicts.add(self.verdict(m.astype(dtype)))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("value", [2, -1, 0.5, np.nan])
    def test_entries_other_than_0_and_1(self, value):
        chain = np.triu(np.ones((3, 3)))
        for at in [(0, 1), (1, 0), (2, 2)]:
            for dtype in (float, object):
                m = chain.astype(dtype)
                m[at] = value
                assert not self.verdict(m)

    @pytest.mark.parametrize("m", [np.ones((2, 3)), np.ones(3), np.ones((1, 1, 1)),
                                   np.array(1), np.ones((0, 0)), np.zeros((0, 0), dtype=bool)],
                             ids=["2x3", "1-D", "3-D", "0-D", "0x0", "0x0-bool"])
    def test_shapes(self, m):
        assert self.verdict(m) == (m.shape == (0, 0))


class TestTransitiveReduction:
    def test_removes_shortcut(self):
        dag = Dag(3, {(1, 2), (2, 3), (1, 3)})
        assert transitive_reduction(dag).edges == frozenset({(1, 2), (2, 3)})

    def test_dense4(self):
        reduced = transitive_reduction(Dag(4, DENSE4_EDGES))
        assert reduced.edges == frozenset({(1, 3), (2, 3), (3, 4)})

    def test_edgeless_fixed_point(self):
        dag = Dag(3)
        assert transitive_reduction(dag) == dag

    def test_idempotent_preserves_reachability_and_is_minimal(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = int(rng.integers(1, 8))
            dag = random_dag(d, float(rng.uniform(0, 1)), rng)
            reduced = transitive_reduction(dag)
            assert np.array_equal(reachability_matrix(reduced), reachability_matrix(dag))
            assert transitive_reduction(reduced) == reduced
            assert reduced.edges == frozenset(
                oracles.transitive_reduction_edges(d, set(dag.edges))
            )

    @pytest.mark.parametrize("d,density", [(30, 0.2), (60, 0.5)])
    def test_large_dag_and_its_closure_reduce_alike(self, d, density):
        dag = random_dag(d, density, d)
        reach = reachability_matrix(dag)
        closure = dag_from_reachability(reach)
        assert closure.edges == frozenset(
            (j + 1, i + 1) for j, i in zip(*np.nonzero(reach)) if j != i
        )
        reduced = transitive_reduction(dag)
        assert transitive_reduction(closure) == reduced
        assert reduced.edges <= dag.edges
        assert np.array_equal(reachability_matrix(reduced), reach)
        for edge in reduced.edges:
            thinned = Dag(d, reduced.edges - {edge})
            assert not np.array_equal(reachability_matrix(thinned), reach)


class TestCausalOrdering:
    def test_a_repeated_node_is_not_an_order(self):
        with pytest.raises(ValidationError) as exc:
            CausalOrdering.from_node_order([1, 1, 2])
        assert str(exc.value) == "node order [1, 1, 2] is not a permutation of 1..3"

    def test_chain_identity_is_causal(self):
        dag = Dag(3, {(1, 2), (2, 3)})
        assert validate_causal_ordering(dag, CausalOrdering((1, 2, 3)))

    def test_chain_reversed_is_not(self):
        dag = Dag(3, {(1, 2), (2, 3)})
        assert not validate_causal_ordering(dag, CausalOrdering((3, 2, 1)))

    def test_dense4_source_swap_is_causal(self):
        dag = Dag(4, DENSE4_EDGES)
        sigma = CausalOrdering((2, 1, 3, 4))
        assert validate_causal_ordering(dag, sigma)

    def test_non_bijective_rejected(self):
        with pytest.raises(ValidationError):
            CausalOrdering((1, 1, 3))
        with pytest.raises(ValidationError):
            validate_causal_ordering(Dag(2, {(1, 2)}), [1, 1])

    def test_length_mismatch_rejected(self):
        # One rule for both readers, each message naming what fixes d.
        for ordering in (CausalOrdering((1, 2)), (1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValidationError, match=r"ordering has length \d, DAG has 3 nodes"):
                validate_causal_ordering(Dag(3), ordering)
            with pytest.raises(ValidationError, match=r"ordering has length \d, matrix is 3x3"):
                recover_from_ordering(CHAIN3_CHI, ordering)

    def test_node_order_round_trip(self):
        sigma = CausalOrdering.from_node_order([2, 4, 1, 3])
        assert sigma.node_order == (2, 4, 1, 3)
        assert sigma.position(2) == 1
        assert sigma.position(3) == 4

    @given(st.permutations(list(range(1, 7))))
    def test_positions_and_node_order_are_inverse(self, order):
        sigma = CausalOrdering.from_node_order(order)
        assert [sigma.position(v) for v in sigma.node_order] == list(range(1, 7))

    def test_every_dag_has_a_valid_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.integers(1, 9))
            dag = random_dag(d, float(rng.uniform(0, 1)), rng)
            sigma = next(iter(causal_orderings(dag, limit=1)))
            assert validate_causal_ordering(dag, sigma)


class TestCausalOrderingEnumeration:
    def test_chain_has_exactly_one(self):
        dag = Dag(3, {(1, 2), (2, 3)})
        assert [o.node_order for o in causal_orderings(dag)] == [(1, 2, 3)]

    def test_edgeless_has_factorial_many(self):
        assert len(list(causal_orderings(Dag(3)))) == 6

    def test_limit_is_respected(self):
        assert len(list(causal_orderings(Dag(4), limit=5))) == 5

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            dag = random_dag(d, float(rng.uniform(0, 1)), rng)
            ours = [o.node_order for o in causal_orderings(dag)]
            assert sorted(ours) == oracles.linear_extensions(d, set(dag.edges))
            assert len(set(ours)) == len(ours)

    def test_matches_the_frozen_recursive_search(self, corpus):
        cases = [(entry.dag, 50) for entry in corpus[:300]] + [(Dag(6), None), (Dag(7), None)]
        for dag, limit in cases:
            ours = [o.node_order for o in causal_orderings(dag, limit)]
            frozen = oracles.causal_orderings_by_recursion(dag.d, set(dag.edges))
            assert ours == list(itertools.islice(frozen, limit))

    def test_a_long_chain_needs_no_recursion(self):
        # 1200 placements, above the interpreter's default recursion limit of
        # 1000: the recursive search it replaced raised RecursionError on it.
        chain = Dag(1200, [(v, v + 1) for v in range(1, 1200)])
        assert [o.node_order for o in causal_orderings(chain)] == [tuple(range(1, 1201))]


@pytest.mark.parametrize("density", [True, "0.5", -0.1, 1.5, np.nan],
                         ids=["True", "str-0.5", "-0.1", "1.5", "nan"])
def test_density_is_a_real_number_in_the_unit_interval(density):
    # True once drew a complete DAG and "0.5" raised TypeError.
    for call in (lambda: random_dag(3, density, 1),
                 lambda: random_weighted_model(3, density=density, seed_or_rng=1)):
        with pytest.raises(ValidationError, match=r"edge density must lie in \[0, 1\]"):
            call()


@settings(max_examples=30)
@given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_random_dag_is_always_acyclic(d, density, seed):
    dag = random_dag(d, density, seed)
    assert len(dag.topological_order()) == d


@pytest.mark.parametrize("d", [1, 2, 5, 13, 40])
@pytest.mark.parametrize("density", [0, 0.3, 0.9, 1])
def test_random_dag_draws_as_the_nested_loop(d, density):
    # One draw per candidate pair, in the loop's order: the same edges, and
    # the generator left where the loop leaves it, so the weights that
    # random_weighted_model draws next stay the same too.
    for seed in range(20):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_dag(d, density, rng).edges == oracles.random_dag_edges(d, density, reference)
        assert rng.random() == reference.random()
