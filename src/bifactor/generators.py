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

The j-th output after seeding depends only on seed + (j + 1) * gamma, so a
stretch of the stream can be computed at once.  ``_draws_below`` does so
for the Bernoulli draws of min-degree-random: it packs a block of draws
into 128-bit lanes of one Python integer, runs each xor-shift and
multiply once over the whole integer, and masks every lane back to 64
bits after each step, so the products never spill into the next lane.
It picks out the same draws as ``chance`` called once per draw, bit for
bit; ``next_u64``, ``below``, ``chance`` and ``shuffle`` stay the scalar
reference.

The oracles at the bottom are deliberately naive: backtracking over edge
subsets with remaining-degree pruning, and exhaustive enumeration of all
small bipartite graphs, whose X rows are n_y-bit masks.  They exist to
check the clever code, so they share none of it; the enumerator, bit
masks and all, still shares nothing with the solver.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import product, repeat
from operator import eq
from typing import NamedTuple

from .errors import BudgetExceededError, ParamInvalidError, RetryExhaustedError
from .graph import (
    MAX_CLASS_SIZE,
    BipartiteGraph,
    Edge,
    Factor,
    _stored,
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

_BLOCK = 1024  # draws per block in _draws_below; any size gives the same draws


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
        return self.next_u64() < _threshold(p)


def _threshold(p: float) -> int:
    """The bound a draw must stay below to count as a success of chance p."""
    return int(p * 2.0**64)


@cache
def _lanes() -> tuple[int, int, int]:
    """Three integers of _BLOCK 128-bit lanes holding, in lane j, 1, the
    64-bit mask, and (j + 1) * gamma mod 2^64.  Built on first use, not at
    import."""

    def pack(values) -> int:
        return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")

    ones = pack(repeat(1, _BLOCK))
    return ones, ones * _MASK, pack((j + 1) * _GAMMA & _MASK for j in range(_BLOCK))


def _draws_below(rng: SplitMix64, count: int, threshold: int) -> list[int]:
    """The indices j, ascending, among ``count`` calls of rng.next_u64()
    whose draw j is below ``threshold`` (at most 2^64); rng ends where
    those calls leave it.

    Lane j of ``states`` holds the state that draw start + j mixes.  A
    lane of ``(2^64 + threshold - 1) - z`` has bit 64 set exactly when
    z < threshold and never borrows from the next lane, so those bits
    mark the accepted draws: one byte in sixteen of the block's bytes,
    found by ``bytes.find``.  The last block runs whole, and its draws
    past ``count`` are dropped.
    """
    ones, mask, steps = _lanes()
    states = (ones * rng.state + steps) & mask
    advance = ones * (_BLOCK * _GAMMA & _MASK)
    bound = ones * ((1 << 64) + threshold - 1)
    hits: list[int] = []
    for start in range(0, count, _BLOCK):
        z = ((states ^ (states >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        z = (z ^ (z >> 31)) & mask
        marks = (((bound - z) >> 64) & ones).to_bytes(16 * _BLOCK, "little")
        i = marks.find(1)
        while i >= 0:
            hits.append(start + i // 16)
            i = marks.find(1, i + 16)
        states = (states + advance) & mask
    rng.state = (rng.state + count * _GAMMA) & _MASK
    del hits[bisect_left(hits, count) :]
    return hits


MODELS = ("k-minus-matching", "double-cycle", "k-regular-union", "min-degree-random")


class GenSpec(NamedTuple):
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

    Each attempt draws from its own sub-seed, so one that collides stops
    there and the next sub-seed is tried; RetryExhaustedError after
    RETRY_BUDGET attempts.
    """
    for attempt in range(RETRY_BUDGET):
        rng = SplitMix64(seed + attempt)
        perms: list[list[int]] = []
        while len(perms) < count:
            perm = _permutation(rng, n)
            if any(any(map(eq, perm, other)) for other in perms):
                break
            perms.append(perm)
        else:
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
    # the permutations are disjoint, so each x has exactly delta base y's
    base = [sorted(ys) for ys in zip(*perms)]
    edges = [(x, y) for x, ys in enumerate(base) for y in ys]
    # sprinkle stream sits past every retry sub-seed; x takes draws
    # [x * width, (x + 1) * width), one per y outside its base, in y order
    width = spec.n - delta
    rng = SplitMix64(spec.seed + RETRY_BUDGET)
    for d in _draws_below(rng, spec.n * width, _threshold(spec.p)):
        x, y = divmod(d, width)
        for b in base[x]:  # step y past the base y's at or below it
            if b > y:
                break
            y += 1
        edges.append((x, y))
    return BipartiteGraph(spec.n, spec.n, edges)


# -- brute-force oracles --------------------------------------------------------


class OracleVerdict(NamedTuple):
    """Outcome of an exhaustive search.

    exists=True comes with a witness; exists=False means the whole pruned
    search space was exhausted.  ``examined`` counts decision nodes.
    """

    exists: bool
    witness: Factor | None
    examined: int


def _spanning_connected(n_x: int, n_y: int, edges: list[Edge]) -> bool:
    """Whether the edges connect all n_x + n_y vertices (union-find).

    It serves the connected oracle, brute_force_connected_k_factor.
    """
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
    rem_x, rem_y = map(list, graph.degrees())
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
    """Yield every connected bipartite graph with exactly these class sizes.

    The order is that of the edge mask, ascending, where cell (x, y) is bit
    x * n_y + y: X(n_x - 1)'s row is the most significant digit.  What
    ``verify oracle-eq`` and ``verify prop-s12`` print, and which host each
    of exhaustive-small's shuffled operation labels names, depend on it.
    Each graph is stored straight from its masks: rows_x[r] lists the y's
    of row mask r and rows_y[c] the x's of column mask c, ascending and
    free of repeats by construction, so every host shares the tables'
    row tuples and no edge list is built or checked.
    """
    if not (1 <= n_x <= 5 and 1 <= n_y <= 5):
        raise ParamInvalidError("class sizes must lie in [1, 5]")
    full = (1 << n_y) - 1
    rows_x = [tuple(y for y in range(n_y) if r >> y & 1) for r in range(full + 1)]
    rows_y = [tuple(x for x in range(n_x) if c >> x & 1) for c in range(1 << n_x)]
    # A connected host gives every x an edge, so no row mask is 0.  product
    # varies its last digit fastest; reversed, that digit is X0's row.
    for masks in product(range(1, full + 1), repeat=n_x):
        masks = masks[::-1]
        # OR each row that meets the Y's reached from X0 into them, until
        # a pass over the rows left reaches none of them.
        reach, left = masks[0], masks[1:]
        while left:
            rest = []
            for row in left:
                if row & reach:
                    reach |= row
                else:
                    rest.append(row)
            if len(rest) == len(left):
                break
            left = rest
        if left or reach != full:
            continue
        cols = [0] * n_y
        for x, row in enumerate(masks):
            for y in rows_x[row]:
                cols[y] |= 1 << x
        yield _stored(
            BipartiteGraph, n_x, n_y, [rows_x[r] for r in masks], [rows_y[c] for c in cols]
        )
