"""Frozen matrices and DAG builders shared across the test suite.

Expected values marked "derived" were computed with the brute-force oracles
in oracles.py (path enumeration, direct tail dependence sums) and frozen.
"""
from __future__ import annotations

import numpy as np

from maxlindag import (
    Dag,
    WeightedModel,
    mlcm_from_weights,
    random_weighted_model,
    standardize,
    tdm_from_std_mlcm,
)


def bbar_single_edge(b: float) -> np.ndarray:
    return np.array([[1.0, b], [0.0, 1.0 - b]])


def bbar_single_edge_reversed(b: float) -> np.ndarray:
    return np.array([[1.0 - b, 0.0], [b, 1.0]])


def chi_single_edge(b: float) -> np.ndarray:
    return np.array([[1.0, b], [b, 1.0]])


# Four nodes, edges 1->3, 1->4, 2->3, 2->4, 3->4 (two source nodes feeding a
# chain); 1->4 and 2->4 are transitively redundant.
DENSE4_EDGES = frozenset({(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)})

# On DENSE4: the 2->3->4 route realizes the maximum 2-to-4 path weight
# (0.25 = 0.4 * 0.125 / 0.2).
BBAR_DENSE4_THROUGH = np.array(
    [
        [1.0, 0.0, 0.4, 0.3],
        [0.0, 1.0, 0.4, 0.25],
        [0.0, 0.0, 0.2, 0.125],
        [0.0, 0.0, 0.0, 0.325],
    ]
)

# On DENSE4: the direct 2->4 edge dominates the 2->3->4 route
# (0.5 > 0.8 * 0.04 / 0.1 = 0.32), yet the chi products still multiply.
BBAR_DENSE4_DIRECT = np.array(
    [
        [1.0, 0.0, 0.1, 0.085],
        [0.0, 1.0, 0.8, 0.5],
        [0.0, 0.0, 0.1, 0.04],
        [0.0, 0.0, 0.0, 0.375],
    ]
)

# Two independent forks: 1->3, 1->4, 2->3, 2->4 (3 is NOT an ancestor of 4).
FORKS4_EDGES = frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})

BBAR_FORKS4 = np.array(
    [
        [1.0, 0.0, 1 / 3, 1 / 6],
        [0.0, 1.0, 1 / 3, 1 / 3],
        [0.0, 0.0, 1 / 3, 0.0],
        [0.0, 0.0, 0.0, 1 / 2],
    ]
)

# A 4x4 tail dependence matrix with two maximum cliques {1,2} and {1,4} in
# the complement graph; exactly two compatible standardized matrices exist,
# only the first of which is max-weighted.
CHI_TWO_CLIQUES = np.array(
    [
        [1.0, 0.0, 0.2, 0.0],
        [0.0, 1.0, 0.6, 0.5],
        [0.2, 0.6, 1.0, 0.5],
        [0.0, 0.5, 0.5, 1.0],
    ]
)

BBAR_TWO_CLIQUES_MW = np.array(
    [
        [1.0, 0.0, 0.2, 0.0],
        [0.0, 1.0, 0.6, 0.5],
        [0.0, 0.0, 0.2, 0.0],
        [0.0, 0.0, 0.0, 0.5],
    ]
)

BBAR_TWO_CLIQUES_GENERAL = np.array(
    [
        [1.0, 0.0, 0.2, 0.0],
        [0.0, 0.5, 0.1, 0.0],
        [0.0, 0.0, 0.2, 0.0],
        [0.0, 0.5, 0.5, 1.0],
    ]
)

# DAG of the max-weighted solution above.
TWO_CLIQUES_MW_DAG = Dag(4, {(1, 3), (2, 3), (2, 4)})

# Alternative DAG on which the same chi fails the incomparable-pair
# condition (chi(2,3)=0.6 against min(chi(2,4), chi(3,4))=0.5).
TWO_CLIQUES_ALT_DAG = Dag(4, {(1, 3), (4, 3), (4, 2)})

# Minimum representing DAG of the general (non max-weighted) solution.
TWO_CLIQUES_GENERAL_DAG = Dag(4, {(1, 3), (4, 3), (4, 2), (2, 3)})

# Three-node chi whose identity-ordering recovery is a valid coefficient
# matrix while the (1,3,2) ordering yields an invalid one.
CHI_TRIANGLE = np.array(
    [
        [1.0, 1 / 10, 1 / 3],
        [1 / 10, 1.0, 13 / 30],
        [1 / 3, 13 / 30, 1.0],
    ]
)

BBAR_TRIANGLE_VALID = np.array(
    [
        [1.0, 1 / 10, 1 / 3],
        [0.0, 9 / 10, 1 / 3],
        [0.0, 0.0, 1 / 3],
    ]
)

BBAR_TRIANGLE_INVALID = np.array(
    [
        [1.0, 1 / 10, 1 / 3],
        [0.0, 17 / 30, 0.0],
        [0.0, 1 / 3, 2 / 3],
    ]
)

# Second valid matrix for CHI_TRIANGLE, recovered from initial set {2};
# derived by the row recursion and verified by reconstruction.
BBAR_TRIANGLE_SECOND = np.array(
    [
        [9 / 10, 0.0, 7 / 30],
        [1 / 10, 1.0, 13 / 30],
        [0.0, 0.0, 1 / 3],
    ]
)

# Two standardized matrices on three nodes sharing the same tail dependence
# matrix and the same single initial node, neither of them max-weighted:
# identifiability from (chi, initials) genuinely needs max-weightedness.
BBAR_SHARED_TDM_A = np.array(
    [
        [1.0, 0.2, 0.3],
        [0.0, 0.8, 0.4],
        [0.0, 0.0, 0.3],
    ]
)

BBAR_SHARED_TDM_B = np.array(
    [
        [1.0, 0.2, 0.3],
        [0.0, 0.4, 0.0],
        [0.0, 0.4, 0.7],
    ]
)


def _strand(start: int, end: int) -> set[tuple[int, int]]:
    return {(v, v + 1) for v in range(start, end)}


def three_strand_dag() -> Dag:
    """99 nodes: three long parallel strands that rejoin before two sinks.

    Main strand 1-2-35-...-66-98-99, upper strand 2-3-...-34-98, lower
    strand 35-67-...-97-98.  Equals its own transitive reduction.
    """
    edges = {(1, 2), (2, 35), (66, 98), (98, 99), (2, 3), (34, 98), (35, 67), (97, 98)}
    edges |= _strand(35, 66)
    edges |= _strand(3, 34)
    edges |= _strand(67, 97)
    return Dag(99, edges)


def three_strand_join_dag() -> Dag:
    """97 nodes: three strands joining at 96 and 97, with a pendant leaf 95.

    Main strand 1-2-34-...-64-96, upper strand 2-3-...-33-96, lower strand
    34-65-...-94-96; nodes 33, 64 and 94 also feed 97, and 33 feeds the
    leaf 95.
    """
    edges = {
        (1, 2), (2, 34), (64, 96), (2, 3), (33, 96), (34, 65), (94, 96),
        (33, 95), (33, 97), (64, 97), (94, 97),
    }
    edges |= _strand(34, 64)
    edges |= _strand(3, 33)
    edges |= _strand(65, 94)
    return Dag(97, edges)


def large_models() -> list[tuple[str, WeightedModel]]:
    """Models of every kind at d = 12 .. 60 (alpha 1), from a fixed seed."""
    rng = np.random.default_rng(4242)
    out = []
    for d in (12, 25, 40, 60):
        for kind in ("general", "polytree", "homogeneous"):
            model = random_weighted_model(
                d, float(rng.uniform(0.1, 0.6)), (0.5, 2.0), 1.0, rng,
                polytree=kind == "polytree", homogeneous=kind == "homogeneous",
            )
            out.append((f"{kind}-{d}", model))
    return out


def enumeration_models() -> list[WeightedModel]:
    """d = 11 and 12 models (density 0.3, alpha 1) past the default enumeration cap.

    Seeds 100-103 at d = 11 and 12, each as a general, a polytree and a
    homogeneous model.  The seed-100 d = 12 general and homogeneous models
    are the slowest: each took 10-17 s when the search re-walked repeated
    prefix states.
    """
    seeds = [(d, s) for d in (11, 12) for s in (100, 101, 102, 103)]
    kinds = ("general", "polytree", "homogeneous")
    runs = [(d, s, kind) for d, s in seeds for kind in kinds]
    return [
        random_weighted_model(d, density=0.3, seed_or_rng=s,
                              polytree=kind == "polytree", homogeneous=kind == "homogeneous")
        for d, s, kind in runs
    ]


def chi_of(model: WeightedModel) -> np.ndarray:
    """The tail dependence matrix of a weighted model."""
    return tdm_from_std_mlcm(standardize(mlcm_from_weights(model), model.alpha))


def polytrees_40() -> list[WeightedModel]:
    """Six d = 40 polytrees (alpha 1), drawn in turn from the corpus seed 20250801.

    The structure-large benchmark workload runs ``enumerate_all_rmwm`` on
    the same six; their chi-complement graphs have 2368 maximum cliques.
    """
    rng = np.random.default_rng(20250801)
    return [random_weighted_model(40, alpha=1.0, seed_or_rng=rng, polytree=True)
            for _ in range(6)]
