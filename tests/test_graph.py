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
    ValidationError,
    ancestral_sets,
    causal_orderings,
    dag_from_reachability,
    is_reachability_matrix,
    random_dag,
    reachability_matrix,
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

    def test_duplicate_edges_collapse(self):
        dag = Dag(2, [(1, 2), (1, 2)])
        assert dag.edges == frozenset({(1, 2)})

    def test_equality_ignores_caches(self):
        assert Dag(3, {(1, 2)}) == Dag(3, {(1, 2)})
        assert Dag(3, {(1, 2)}) != Dag(3, {(2, 1)})


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

    def test_is_reachability_matrix_rejects_intransitive(self):
        m = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert not is_reachability_matrix(m)
        m[0, 2] = 1
        assert is_reachability_matrix(m)
        assert not is_reachability_matrix(np.array([[1, 1], [1, 1]]))


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
        with pytest.raises(ValidationError):
            validate_causal_ordering(Dag(3), CausalOrdering((1, 2)))

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


@settings(max_examples=30)
@given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_random_dag_is_always_acyclic(d, density, seed):
    dag = random_dag(d, density, seed)
    assert len(dag.topological_order()) == d
