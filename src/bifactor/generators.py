"""Seeded instance generators and exhaustive reference oracles.

Randomness comes from a self-contained 64-bit mixing generator so any
implementation, in any language, reproduces the graphs bit-exactly from
the seed.  The recurrence is the splitmix construction:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output z XOR (z >> 31)

Bounded draws use plain modulo (documented bias is irrelevant at these
sizes); shuffles are Fisher-Yates from the top index down.  Models that
retry draw trial t from sub-seed ``seed + t``.

The oracles at the bottom are deliberately naive: backtracking over edge
subsets with remaining-degree pruning, and exhaustive enumeration of all
small bipartite graphs.  They exist to check the clever code, so they
share none of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, ParamInvalidError, RetryExhaustedError
from .graph import (
    MAX_CLASS_SIZE,
    BipartiteGraph,
    Edge,
    Factor,
    complete_bipartite_minus_matching,
    cycle_graph,
    double_graph,
)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

EDGE_BUDGET = 40
RETRY_BUDGET = 1000


class SplitMix64:
    """The documented splitmix recurrence; do not swap in another RNG."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def chance(self, p: float) -> bool:
        return self.next_u64() < int(p * 2.0**64)


MODELS = ("k-minus-matching", "double-cycle", "k-regular-union", "min-degree-random")


@dataclass(frozen=True)
class GenSpec:
    """Everything that determines a generated graph, bit for bit.

    model: one of MODELS.
    n: vertices per side (half the base cycle length for double-cycle).
    k: matchings for k-regular-union, guaranteed minimum degree for
       min-degree-random, removed-matching size for k-minus-matching
       (defaults to n when negative); ignored by double-cycle.
    seed: base seed; retrying models use seed + attempt.
    p: extra-edge probability for min-degree-random.
    """

    model: str
    n: int
    seed: int = 0
    k: int = -1
    p: float = 0.0


def _permutation(rng: SplitMix64, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _disjoint_permutations(seed: int, n: int, count: int) -> list[list[int]]:
    """``count`` permutations of [0, n) that pairwise disagree everywhere.

    Each failed attempt moves to the next sub-seed; RetryExhaustedError
    after RETRY_BUDGET attempts.
    """
    for attempt in range(RETRY_BUDGET):
        rng = SplitMix64(seed + attempt)
        perms = [_permutation(rng, n) for _ in range(count)]
        used = set()
        ok = True
        for perm in perms:
            for x, y in enumerate(perm):
                if (x, y) in used:
                    ok = False
                    break
                used.add((x, y))
            if not ok:
                break
        if ok:
            return perms
    raise RetryExhaustedError(
        f"no collision-free draw of {count} permutations on {n} in {RETRY_BUDGET} tries"
    )


def generate(spec: GenSpec) -> BipartiteGraph:
    """The graph determined by ``spec``; same spec, same graph, always."""
    if spec.model not in MODELS:
        raise ParamInvalidError(f"unknown model {spec.model!r}")
    if spec.n < 1:
        raise ParamInvalidError("n must be positive")
    # the limit graph files have, checked before anything is allocated
    if spec.n > MAX_CLASS_SIZE:
        raise ParamInvalidError(f"n must not exceed {MAX_CLASS_SIZE}")

    if spec.model == "double-cycle":
        if spec.n < 2:
            raise ParamInvalidError("double-cycle needs n >= 2")
        if 2 * spec.n > MAX_CLASS_SIZE:  # 2n vertices per class
            raise ParamInvalidError(f"double-cycle needs n <= {MAX_CLASS_SIZE // 2}")
        return double_graph(cycle_graph(spec.n))

    if spec.model == "k-minus-matching":
        size = spec.n if spec.k < 0 else spec.k
        if size > spec.n:
            raise ParamInvalidError("matching size cannot exceed n")
        perm = _permutation(SplitMix64(spec.seed), spec.n)
        return complete_bipartite_minus_matching(spec.n, [(x, perm[x]) for x in range(size)])

    if spec.model == "k-regular-union":
        if spec.k < 1 or spec.k > spec.n:
            raise ParamInvalidError("k-regular-union needs 1 <= k <= n")
        perms = _disjoint_permutations(spec.seed, spec.n, spec.k)
        edges = [(x, perm[x]) for perm in perms for x in range(spec.n)]
        return BipartiteGraph(spec.n, spec.n, edges)

    # min-degree-random
    delta = spec.k
    if delta < 1 or delta > spec.n:
        raise ParamInvalidError("min-degree-random needs 1 <= k <= n")
    if not 0.0 <= spec.p <= 1.0:
        raise ParamInvalidError("p must lie in [0, 1]")
    perms = _disjoint_permutations(spec.seed, spec.n, delta)
    base = {(x, perm[x]) for perm in perms for x in range(spec.n)}
    # sprinkle stream sits past every retry sub-seed
    rng = SplitMix64(spec.seed + RETRY_BUDGET)
    edges = sorted(base)
    for x in range(spec.n):
        for y in range(spec.n):
            if (x, y) not in base and rng.chance(spec.p):
                edges.append((x, y))
    return BipartiteGraph(spec.n, spec.n, edges)


# -- brute-force oracles --------------------------------------------------------


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of an exhaustive search.

    exists=True comes with a witness; exists=False means the whole pruned
    search space was exhausted.  ``examined`` counts decision nodes.
    """

    exists: bool
    witness: Factor | None
    examined: int


def _spanning_connected(n_x: int, n_y: int, edges: list[Edge]) -> bool:
    parent = list(range(n_x + n_y))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    merged = 0
    for x, y in edges:
        ra, rb = find(x), find(n_x + y)
        if ra != rb:
            parent[ra] = rb
            merged += 1
    return merged == n_x + n_y - 1


def _search_factor(
    graph: BipartiteGraph,
    need_x: list[int],
    need_y: list[int],
    require_connected: bool,
) -> OracleVerdict:
    if graph.m > EDGE_BUDGET:
        raise BudgetExceededError(f"{graph.m} edges exceeds oracle budget {EDGE_BUDGET}")
    edges = graph.edge_list
    m = len(edges)
    # rem[v] = how many not-yet-decided edges still touch v
    rem_x = [graph.degree_x(x) for x in range(graph.n_x)]
    rem_y = [graph.degree_y(y) for y in range(graph.n_y)]
    chosen: list[Edge] = []
    examined = 0

    def rec(idx: int) -> bool:
        nonlocal examined
        examined += 1
        if idx == m:
            if any(need_x) or any(need_y):
                return False
            if require_connected and not _spanning_connected(
                graph.n_x, graph.n_y, chosen
            ):
                return False
            return True
        x, y = edges[idx]
        rem_x[x] -= 1
        rem_y[y] -= 1
        # include the edge
        if need_x[x] > 0 and need_y[y] > 0:
            need_x[x] -= 1
            need_y[y] -= 1
            chosen.append((x, y))
            if rec(idx + 1):
                return True
            chosen.pop()
            need_x[x] += 1
            need_y[y] += 1
        # exclude the edge unless some endpoint now cannot be filled
        if need_x[x] <= rem_x[x] and need_y[y] <= rem_y[y]:
            if rec(idx + 1):
                return True
        rem_x[x] += 1
        rem_y[y] += 1
        return False

    found = rec(0)
    del rec  # rec refers to itself through its closure cell: free it without the cyclic GC
    witness = Factor(graph, chosen) if found else None
    return OracleVerdict(found, witness, examined)


def brute_force_f_factor(
    graph: BipartiteGraph, f_x: list[int], f_y: list[int]
) -> OracleVerdict:
    """Exhaustive existence check for an exact-degree spanning subgraph."""
    return _search_factor(graph, list(f_x), list(f_y), require_connected=False)


def brute_force_connected_k_factor(graph: BipartiteGraph, k: int) -> OracleVerdict:
    """Exhaustive existence check for a connected k-regular spanning subgraph."""
    if k < 1:
        raise ParamInvalidError("connected search needs k >= 1")
    return _search_factor(
        graph, [k] * graph.n_x, [k] * graph.n_y, require_connected=True
    )


def enumerate_bipartite_block(n_x: int, n_y: int):
    """Yield every connected bipartite graph with exactly these class sizes."""
    if not (1 <= n_x <= 5 and 1 <= n_y <= 5):
        raise ParamInvalidError("class sizes must lie in [1, 5]")
    cells = [(x, y) for x in range(n_x) for y in range(n_y)]
    for mask in range(1 << len(cells)):
        edges = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        if len(edges) < n_x + n_y - 1:
            continue
        if _spanning_connected(n_x, n_y, edges):
            yield BipartiteGraph(n_x, n_y, edges)
