"""DAG representation and pure graph procedures.

Nodes are the integers ``1..d`` throughout; external naming is an I/O
concern.  A :class:`Dag` is immutable after construction and rejects cyclic
edge sets outright, so every derived value can be shared freely.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CycleError, ValidationError


class AncestralSets(NamedTuple):
    """Ancestor/descendant neighbourhoods of one node."""

    an: frozenset[int]
    An: frozenset[int]
    pa: frozenset[int]
    de: frozenset[int]
    De: frozenset[int]


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph on nodes ``{1..d}``.

    ``edges`` holds ordered pairs ``(k, i)`` for an edge ``k -> i``.
    Construction validates node ranges, forbids self loops, and runs a
    Kahn-style topological sort; a cyclic edge set raises :class:`CycleError`
    rather than producing a half-valid object.

    Ancestor and descendant queries, and :func:`reachability_matrix`, read
    one read-only boolean d x d reachability matrix (d*d bytes), computed on
    the first query and kept.  Computing it is idempotent, so concurrent
    first queries from several threads are harmless.
    """

    d: int
    edges: frozenset[tuple[int, int]]
    _parents: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    _children: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    _topo: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _reach: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __init__(self, d: int, edges: Iterable[tuple[int, int]] = ()):
        if not isinstance(d, (int, np.integer)) or d < 1:
            shown = d.item() if isinstance(d, np.generic) else d
            raise ValidationError(f"node count must be a positive integer, got {shown!r}")
        edge_set = frozenset((int(k), int(i)) for k, i in edges)
        for k, i in edge_set:
            if not (1 <= k <= d and 1 <= i <= d):
                raise ValidationError(f"edge ({k},{i}) outside node range 1..{d}")
            if k == i:
                raise ValidationError(f"self loop at node {k}")
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "edges", edge_set)

        parents = [set() for _ in range(d + 1)]
        children = [set() for _ in range(d + 1)]
        for k, i in edge_set:
            parents[i].add(k)
            children[k].add(i)

        indeg = [len(parents[v]) for v in range(d + 1)]
        queue = deque(v for v in range(1, d + 1) if indeg[v] == 0)
        topo: list[int] = []
        while queue:
            v = queue.popleft()
            topo.append(v)
            for w in sorted(children[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(topo) != d:
            raise CycleError("edge set contains a directed cycle")

        object.__setattr__(self, "_parents", tuple(frozenset(p) for p in parents))
        object.__setattr__(self, "_children", tuple(frozenset(c) for c in children))
        object.__setattr__(self, "_topo", tuple(topo))
        object.__setattr__(self, "_reach", None)

    def _check_node(self, i: int) -> int:
        if not (1 <= i <= self.d):
            raise ValidationError(f"node {i} outside range 1..{self.d}")
        return int(i)

    def parents(self, i: int) -> frozenset[int]:
        return self._parents[self._check_node(i)]

    def children(self, i: int) -> frozenset[int]:
        return self._children[self._check_node(i)]

    def ancestors(self, i: int) -> frozenset[int]:
        """Strict ancestors an(i): nodes with a directed path to ``i``."""
        return self.ancestors_closed(i) - {i}

    def descendants(self, i: int) -> frozenset[int]:
        """Strict descendants de(i)."""
        return self.descendants_closed(i) - {i}

    def ancestors_closed(self, i: int) -> frozenset[int]:
        """An(i) = an(i) plus ``i`` itself."""
        return _nodes(self._reachability()[:, self._check_node(i) - 1])

    def descendants_closed(self, i: int) -> frozenset[int]:
        return _nodes(self._reachability()[self._check_node(i) - 1])

    def _reachability(self) -> np.ndarray:
        # Read-only boolean R with R[j-1, i-1] iff j is in An(i).
        if self._reach is None:
            closed = np.eye(self.d, dtype=bool)  # row i-1 marks An(i)
            for i in self._topo:
                if self._parents[i]:
                    closed[i - 1] |= closed[[k - 1 for k in self._parents[i]]].any(axis=0)
            reach = closed.T
            reach.flags.writeable = False
            object.__setattr__(self, "_reach", reach)
        return self._reach

    def topological_order(self) -> tuple[int, ...]:
        return self._topo

    def initial_nodes(self) -> frozenset[int]:
        """Nodes without parents."""
        return frozenset(v for v in range(1, self.d + 1) if not self._parents[v])

    def terminal_nodes(self) -> frozenset[int]:
        """Nodes without children."""
        return frozenset(v for v in range(1, self.d + 1) if not self._children[v])

    def has_edge(self, k: int, i: int) -> bool:
        return (k, i) in self.edges

    def __repr__(self) -> str:
        edges = " ".join(f"{k}->{i}" for k, i in sorted(self.edges))
        return f"Dag(d={self.d}, edges=[{edges}])"


@dataclass(frozen=True)
class CausalOrdering:
    """Permutation sigma on ``{1..d}``; ``positions[j-1]`` is sigma(j).

    A causal ordering of a DAG places every ancestor before its descendants;
    whether that holds against a particular graph is checked by
    :func:`validate_causal_ordering`, not at construction.
    """

    positions: tuple[int, ...]

    def __post_init__(self):
        d = len(self.positions)
        pos = tuple(int(p) for p in self.positions)
        if sorted(pos) != list(range(1, d + 1)):
            raise ValidationError(f"positions {pos} are not a bijection on 1..{d}")
        object.__setattr__(self, "positions", pos)

    @classmethod
    def from_node_order(cls, nodes: Sequence[int]) -> "CausalOrdering":
        """Build from the nodes listed earliest-first."""
        nodes = [int(v) for v in nodes]
        d = len(nodes)
        if sorted(nodes) != list(range(1, d + 1)):
            raise ValidationError(f"node order {nodes} is not a permutation of 1..{d}")
        positions = [0] * d
        for rank, v in enumerate(nodes, start=1):
            positions[v - 1] = rank
        return cls(tuple(positions))

    @property
    def node_order(self) -> tuple[int, ...]:
        """Nodes sorted by position, earliest first."""
        order = [0] * len(self.positions)
        for v, p in enumerate(self.positions, start=1):
            order[p - 1] = v
        return tuple(order)

    def position(self, node: int) -> int:
        if not (1 <= node <= len(self.positions)):
            raise ValidationError(f"node {node} outside range 1..{len(self.positions)}")
        return self.positions[node - 1]

    def __len__(self) -> int:
        return len(self.positions)


def ancestral_sets(dag: Dag, i: int) -> AncestralSets:
    """All five neighbourhoods (an, An, pa, de, De) of node ``i``."""
    an = dag.ancestors(i)
    de = dag.descendants(i)
    return AncestralSets(an, an | {i}, dag.parents(i), de, de | {i})


def reachability_matrix(dag: Dag) -> np.ndarray:
    """0/1 matrix R with ``R[j-1, i-1] = 1`` iff ``j`` is in An(i).

    Equals the sign pattern of any max-linear coefficient matrix on the DAG;
    the diagonal is all ones and the relation is transitively closed.
    """
    return dag._reachability().astype(np.int64)


def _nodes(mask: np.ndarray) -> frozenset[int]:
    # 1-based node labels of the True entries.
    return frozenset((np.flatnonzero(mask) + 1).tolist())


def is_reachability_matrix(matrix: np.ndarray) -> bool:
    """True iff ``matrix`` is the reachability matrix of some DAG.

    Requires 0/1 entries, unit diagonal, transitive closure, and
    antisymmetry (mutual reachability only on the diagonal).
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if not ((m == 0) | (m == 1)).all():
        return False
    m = m.astype(np.int64)
    if not (np.diag(m) == 1).all():
        return False
    if (m & m.T).sum() != m.shape[0]:  # mutual reachability off the diagonal
        return False
    counts = m.astype(float)  # BLAS product; path counts stay exact below 2**53
    closure = (counts @ counts) > 0
    return bool((m[closure] == 1).all())


def dag_from_reachability(matrix: np.ndarray) -> Dag:
    """DAG whose edges are all strict ancestor pairs of ``matrix``."""
    m = np.asarray(matrix)
    if not is_reachability_matrix(m):
        raise ValidationError("matrix is not a reachability matrix of a DAG")
    return _dag_on(m.astype(bool))


def transitive_reduction(dag: Dag) -> Dag:
    """Unique DAG with the same reachability and no redundant edge.

    An edge ``k -> i`` is redundant when ``i`` stays reachable from ``k``
    after removing it, that is when some strict descendant of ``k`` is a
    strict ancestor of ``i`` (read from the cached reachability matrix); for
    DAGs, removing all redundant edges at once yields the minimum-edge
    representative of the reachability relation.
    """
    strict = dag._reachability() & ~np.eye(dag.d, dtype=bool)
    counts = strict.astype(float)  # BLAS product; path counts stay exact below 2**53
    return _dag_on(strict & ~((counts @ counts) > 0))


def _dag_on(pairs: np.ndarray) -> Dag:
    # DAG with an edge k -> i for every off-diagonal True at [k-1, i-1].
    ks, is_ = np.nonzero(pairs & ~np.eye(len(pairs), dtype=bool))
    return Dag(len(pairs), zip((ks + 1).tolist(), (is_ + 1).tolist()))


def validate_causal_ordering(dag: Dag, ordering: CausalOrdering | Sequence[int]) -> bool:
    """True iff sigma(j) < sigma(i) for every ancestor j of every node i."""
    if not isinstance(ordering, CausalOrdering):
        ordering = CausalOrdering(tuple(ordering))
    if len(ordering) != dag.d:
        raise ValidationError(f"ordering has length {len(ordering)}, DAG has {dag.d} nodes")
    pos = ordering.positions
    return all(pos[k - 1] < pos[i - 1] for k, i in dag.edges)


def causal_orderings(dag: Dag, limit: int | None = None) -> Iterator[CausalOrdering]:
    """Yield causal orderings (linear extensions) in lexicographic node order.

    Stops after ``limit`` orderings when given; the count can be factorial
    in d even for moderate graphs.
    """
    indeg = {v: len(dag.parents(v)) for v in range(1, dag.d + 1)}
    return islice(_extensions(dag, indeg, []), None if limit is None else max(limit, 0))


def _extensions(dag: Dag, indeg: dict[int, int], prefix: list[int]) -> Iterator[CausalOrdering]:
    # Causal orderings that start with `prefix`; `indeg` counts the unplaced
    # parents of every unplaced node.
    if len(prefix) == dag.d:
        yield CausalOrdering.from_node_order(prefix)
        return
    for v in sorted(indeg):
        if indeg[v] == 0:
            del indeg[v]
            for c in dag.children(v):
                indeg[c] -= 1
            prefix.append(v)
            yield from _extensions(dag, indeg, prefix)
            prefix.pop()
            for c in dag.children(v):
                indeg[c] += 1
            indeg[v] = 0
