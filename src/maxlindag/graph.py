"""DAG representation and pure graph procedures.

Nodes are the integers ``1..d`` throughout; external naming is an I/O
concern.  A :class:`Dag` is immutable after construction and rejects cyclic
edge sets outright, so every derived value can be shared freely.

One rule reads each kind of input: ``_node_count`` for node counts,
``_node`` for nodes, ``_edge`` for edges (a pair of distinct nodes),
``_ordering`` for causal orderings of length d and ``_reach`` for
reachability matrices.

``causal_orderings`` walks one explicit stack that it owns, as the clique
search and ``enumerate_all`` do: no recursion limit, and no state shared
with the caller.
"""
from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CycleError, ValidationError
from .tolerance import _instance, _shown


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Boolean a @ b for 0/1 a and b: a BLAS product, exact while counts stay
    # below 2**53.  One float copy when a and b are the same array.
    fa = a.astype(float)
    return (fa @ (fa if b is a else b.astype(float))) > 0


def _node(v: int, d: int) -> int:
    # The node v as a Python int; anything but an integer in 1..d raises.
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 1 <= v <= d:
        raise ValidationError(f"node {_shown(v)!r} is not an integer in 1..{d}")
    return int(v)


def _edge(pair, d: int) -> tuple[int, int]:
    # The edge k -> i as a pair of distinct nodes; anything else raises.
    try:
        k, i = pair
    except (TypeError, ValueError):
        raise ValidationError(f"edge {_shown(pair)!r} is not a pair of nodes") from None
    k, i = _node(k, d), _node(i, d)
    if k == i:
        raise ValidationError(f"self loop at node {k}")
    return k, i


def _count(n: int, what: str) -> int:
    # The count n as a Python int; anything but an integer of at least 1 raises.
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"{what} must be an integer of at least 1, got {_shown(n)!r}")
    return int(n)


def _node_count(d: int) -> int:
    # The one rule for a node count: a count whose d x d reachability matrix
    # numpy can shape (sys.maxsize is the largest np.intp), checked before
    # anything is built.
    d = _count(d, "node count")
    if d * d > sys.maxsize:
        raise ValidationError(f"node count {_shown(d)!r} is too large for a d x d numpy array")
    return d


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
    Construction reads each edge as a pair of distinct nodes in 1..d and
    runs a Kahn-style topological sort; a cyclic edge set raises :class:`CycleError`
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
        d = _node_count(d)
        edge_set = frozenset(_edge(pair, d) for pair in edges)
        object.__setattr__(self, "d", d)
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
        return _node(i, self.d)

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
        pos = tuple(_node(p, d) for p in self.positions)
        if sorted(pos) != list(range(1, d + 1)):
            raise ValidationError(f"positions {pos} are not a bijection on 1..{d}")
        object.__setattr__(self, "positions", pos)

    @classmethod
    def from_node_order(cls, nodes: Sequence[int]) -> "CausalOrdering":
        """Build from the nodes listed earliest-first."""
        d = len(nodes)
        nodes = [_node(v, d) for v in nodes]
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
        return self.positions[_node(node, len(self.positions)) - 1]

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
    return _instance(dag, Dag, "dag")._reachability().astype(np.int64)


def _nodes(mask: np.ndarray) -> frozenset[int]:
    # 1-based node labels of the True entries.
    return frozenset((np.flatnonzero(mask) + 1).tolist())


def is_reachability_matrix(matrix: np.ndarray) -> bool:
    """True iff ``matrix`` is the reachability matrix of some DAG.

    Requires 0/1 entries, unit diagonal, transitive closure, and
    antisymmetry (mutual reachability only on the diagonal).  A boolean
    input skips the 0/1 test; the closure is one boolean product.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if m.dtype != bool:
        if not ((m == 0) | (m == 1)).all():
            return False
        m = m.astype(bool)
    if not m.diagonal().all():
        return False
    if np.count_nonzero(m & m.T) != m.shape[0]:  # mutual reachability off the diagonal
        return False
    return not (_bool_product(m, m) > m).any()


def _reach(matrix: np.ndarray) -> np.ndarray:
    # The one rule for a reachability input: the boolean matrix, or a raise.
    if not is_reachability_matrix(matrix):
        raise ValidationError("reachability input is not a reachability matrix of a DAG")
    return np.asarray(matrix).astype(bool)


def dag_from_reachability(matrix: np.ndarray) -> Dag:
    """DAG whose edges are all strict ancestor pairs of ``matrix``."""
    return _dag_on(_reach(matrix))


def transitive_reduction(dag: Dag) -> Dag:
    """Unique DAG with the same reachability and no redundant edge.

    An edge ``k -> i`` is redundant when ``i`` stays reachable from ``k``
    after removing it, that is when some strict descendant of ``k`` is a
    strict ancestor of ``i`` (read from the cached reachability matrix); for
    DAGs, removing all redundant edges at once yields the minimum-edge
    representative of the reachability relation.
    """
    strict = dag._reachability() & ~np.eye(dag.d, dtype=bool)
    return _dag_on(strict & ~_bool_product(strict, strict))


def _dag_on(pairs: np.ndarray) -> Dag:
    # DAG with an edge k -> i for every off-diagonal True at [k-1, i-1].
    ks, is_ = np.nonzero(pairs & ~np.eye(len(pairs), dtype=bool))
    return Dag(len(pairs), zip((ks + 1).tolist(), (is_ + 1).tolist()))


def _ordering(ordering: CausalOrdering | Sequence[int], d: int, against: str) -> CausalOrdering:
    # A CausalOrdering, or positions sigma(1..d), of length d; `against` names what fixes d.
    if not isinstance(ordering, CausalOrdering):
        ordering = CausalOrdering(tuple(ordering))
    if len(ordering) != d:
        raise ValidationError(f"ordering has length {len(ordering)}, {against}")
    return ordering


def validate_causal_ordering(dag: Dag, ordering: CausalOrdering | Sequence[int]) -> bool:
    """True iff sigma(j) < sigma(i) for every ancestor j of every node i."""
    pos = _ordering(ordering, dag.d, f"DAG has {dag.d} nodes").positions
    return all(pos[k - 1] < pos[i - 1] for k, i in dag.edges)


def causal_orderings(dag: Dag, limit: int | None = None) -> Iterator[CausalOrdering]:
    """Yield causal orderings (linear extensions) in lexicographic node order.

    Stops after ``limit`` orderings when given, a count of at least 1; the
    count can be factorial in d even for moderate graphs.
    """
    limit = None if limit is None else _count(limit, "ordering limit")
    return islice(_extensions(dag), limit)


def _extensions(dag: Dag) -> Iterator[CausalOrdering]:
    # Depth first on one explicit stack that the generator owns, as every
    # search of the library: per position of `prefix`, the ready nodes not
    # yet tried there, largest first.  `indeg` counts the unplaced parents of
    # each node, and a placed node's own count drops to -1.
    indeg = [len(parents) for parents in dag._parents]
    prefix: list[int] = []
    stack = [[v for v in range(dag.d, 0, -1) if indeg[v] == 0]]
    while stack:
        if len(prefix) == len(stack):  # undo the node last placed at this position
            v = prefix.pop()
            for c in (v, *dag._children[v]):
                indeg[c] += 1
        if not stack[-1]:
            stack.pop()
            continue
        v = stack[-1].pop()
        prefix.append(v)
        for c in (v, *dag._children[v]):
            indeg[c] -= 1
        if len(prefix) == dag.d:
            yield CausalOrdering.from_node_order(prefix)
        else:
            stack.append([u for u in range(dag.d, 0, -1) if indeg[u] == 0])
