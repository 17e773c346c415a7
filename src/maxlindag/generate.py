"""Seeded random instance generation for tests, benchmarks, and the CLI."""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .graph import Dag
from .mlcm import WeightedModel, homogeneous_model
from .tolerance import _flag, _is_real, _node_count, _positive, _seed, _shown


def _as_rng(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(_seed(seed_or_rng))


def random_dag(d: int, density: float, seed_or_rng: int | np.random.Generator) -> Dag:
    """Random DAG: upper-triangular edge inclusion under a random node relabeling.

    ``density`` is the inclusion probability of each of the d*(d-1)/2
    candidate edges, a real number in [0, 1].
    """
    d = _node_count(d)
    if not (_is_real(density) and 0.0 <= density <= 1.0):
        raise ValidationError(f"edge density must lie in [0, 1], got {_shown(density)!r}")
    rng = _as_rng(seed_or_rng)
    label = rng.permutation(d) + 1
    a, b = np.triu_indices(d, 1)  # the candidate pairs, row by row
    keep = rng.random(d * (d - 1) // 2) < density
    return Dag(d, zip(label[a[keep]].tolist(), label[b[keep]].tolist()))


def random_polytree(d: int, seed_or_rng: int | np.random.Generator) -> Dag:
    """Random polytree: a random attachment tree with random edge orientation.

    The underlying undirected graph is a tree, so at most one path joins any
    two nodes and every model on the result is max-weighted.
    """
    d = _node_count(d)
    rng = _as_rng(seed_or_rng)
    label = rng.permutation(d) + 1
    edges = set()
    for v in range(2, d + 1):
        u = int(rng.integers(1, v))
        a, b = int(label[u - 1]), int(label[v - 1])
        if rng.random() < 0.5:
            a, b = b, a
        edges.add((a, b))
    return Dag(d, edges)


def random_weighted_model(
    d: int,
    density: float = 0.5,
    weight_range: tuple[float, float] = (0.5, 2.0),
    alpha: float = 1.0,
    seed_or_rng: int | np.random.Generator = 0,
    polytree: bool = False,
    homogeneous: bool = False,
) -> WeightedModel:
    """Random model with log-uniform weights on a random DAG.

    ``weight_range`` is a pair of finite real numbers 0 < lo <= hi.
    ``polytree`` draws the DAG as a random polytree (ignoring ``density``);
    ``homogeneous`` replaces the random weights with the ancestor-count
    weights that make every path max-weighted; both flags are bools.  The
    log-weights are one draw of ``len(edges) + d`` uniforms: the edge
    weights in sorted edge order, then the noise scales, the same stream as
    one draw per weight.
    """
    message = f"weight range must satisfy 0 < lo <= hi < inf, got {_shown(weight_range)!r}"
    try:
        lo, hi = weight_range
    except (TypeError, ValueError):
        raise ValidationError(message) from None
    lo, hi = _positive((lo, hi), "weight range (0 < lo <= hi < inf)")
    if lo > hi:
        raise ValidationError(message)
    polytree, homogeneous = _flag(polytree, "polytree"), _flag(homogeneous, "homogeneous")
    rng = _as_rng(seed_or_rng)
    dag = random_polytree(d, rng) if polytree else random_dag(d, density, rng)
    if homogeneous:
        return homogeneous_model(dag, alpha)
    edges = sorted(dag.edges)
    draws = np.exp(rng.uniform(np.log(lo), np.log(hi), len(edges) + dag.d)).tolist()
    return WeightedModel(dag, dict(zip(edges, draws)), tuple(draws[len(edges):]), alpha)
