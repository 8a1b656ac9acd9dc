"""Named verification suites behind ``bifactor verify``.

Each suite returns per-trial results; a trial is one seeded instance for
the randomized suites and one exhaustive block (a size/degree combination)
for the enumeration suites.  Every trial of every suite runs through one
guard, ``_trial``: a pipeline error, host generation included, fails the
trial instead of propagating, so a suite always reports all of its trials.
"""

from __future__ import annotations

from typing import NamedTuple

from .connect import connected_k_factor, hamilton_s13
from .errors import BifactorError, ParamInvalidError
from .factors import (
    DegreeDemand,
    ViolatorCertificate,
    audit_certificate,
    find_f_factor,
)
from .generators import (
    GenSpec,
    brute_force_f_factor,
    enumerate_bipartite_block,
    generate,
)
from .graph import BipartiteGraph, double_graph, cycle_graph
from .structure import classify_s12_free, find_induced_star, is_skl_free, rebuild_classified

class TrialResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _trial(name: str, check, *args) -> TrialResult:
    """``check(*args)`` returns ``(passed, detail)``; an error it raises fails the trial."""
    try:
        passed, detail = check(*args)
    except (BifactorError, AssertionError) as exc:
        return TrialResult(name, False, f"{type(exc).__name__}: {exc}")
    return TrialResult(name, passed, detail)


def _cycled(lo: int, hi: int, trials: int) -> list[tuple[int, int]]:
    """Trial indices, each with its host size: sizes cycle through lo..hi."""
    return [(t, lo + t % (hi - lo + 1)) for t in range(trials)]


def _cor(n: int, seed: int, k: int, l: int) -> tuple[bool, str]:
    graph = generate(GenSpec("k-minus-matching", n=n, seed=seed))
    if graph.min_degree() != n - 1:
        return False, f"generator broke: min degree {graph.min_degree()}"
    connected_k_factor(graph, k, l)
    return True, f"n={n}"


def run_cor4(trials: int = 25, seed: int = 0) -> list[TrialResult]:
    """Hamilton cycles via the (2,3) threshold on dense minus-matching hosts."""
    return [_trial(f"cor4[{t:02d}]", _cor, n, seed + t, 2, 3) for t, n in _cycled(13, 20, trials)]


def run_cor5(trials: int = 10, seed: int = 0) -> list[TrialResult]:
    """Connected 3-regular factors via the (3,3) threshold."""
    return [_trial(f"cor5[{t:02d}]", _cor, n, seed + t, 3, 3) for t, n in _cycled(19, 24, trials)]


def _hamilton(build, *args) -> tuple[bool, str]:
    hamilton_s13(build(*args))
    return True, ""


def run_thm3(trials: int = 10, seed: int = 0) -> list[TrialResult]:
    """Hamilton cycles in (1,3)-pattern-free hosts of minimum degree 4.

    Fixed part: doubled cycles m = 3..10.  The flow's 2-factor of each has
    two components, which a primary move merges; the alternating-cycle
    swap is exercised by ``test_woven_cycle_is_checked`` in
    ``tests/test_suites.py``, on doubled cycles labelled quadrilateral by
    quadrilateral.  Seeded part: dense minus-matching instances.
    ``hamilton_s13`` itself checks the host's pattern-freeness and, by
    ``check_factor``, its cycle: a fault raises.
    """
    specs = [GenSpec("k-minus-matching", n=n, seed=seed + t) for t, n in _cycled(5, 12, trials)]
    return [
        _trial(f"thm3[double m={m}]", _hamilton, double_graph, cycle_graph(m)) for m in range(3, 11)
    ] + [_trial(f"thm3[seeded n={spec.n}]", _hamilton, generate, spec) for spec in specs]


def _sharp(n: int, seed: int) -> tuple[bool, str]:
    graph = generate(GenSpec("k-regular-union", n=n, k=3, seed=seed))
    deg_x, deg_y = graph.degrees()
    if set(deg_x + deg_y) != {3}:
        return False, "generator output not 3-regular"
    free = is_skl_free(graph, 1, 3)
    return free, "" if free else "detector found the pattern"


def run_sharp_s13(trials: int = 5, seed: int = 0) -> list[TrialResult]:
    """3-regular instances are always (1,3)-pattern-free; confirm by detector."""
    return [_trial(f"sharp-s13[{t:02d}]", _sharp, n, seed + t) for t, n in _cycled(6, 10, trials)]


def _oracle_block(graphs: list[BipartiteGraph], k: int) -> tuple[bool, str]:
    for graph in graphs:
        demand = DegreeDemand.uniform(graph, k)
        got = find_f_factor(graph, demand)
        exists = brute_force_f_factor(graph, [k] * graph.n_x, [k] * graph.n_y).exists
        if isinstance(got, ViolatorCertificate):
            if exists:
                return False, f"flow says no, oracle built one ({graph!r})"
            if not audit_certificate(graph, demand, got):
                return False, f"certificate failed audit ({graph!r})"
        elif not exists:
            return False, f"flow built one, oracle says no ({graph!r})"
        elif got.regularity() != k:
            return False, f"flow factor not {k}-regular ({graph!r})"
    return True, f"{len(graphs)} graphs"


def run_oracle_eq(max_n: int = 4) -> list[TrialResult]:
    """Flow verdicts against brute force on every small balanced host.

    One trial per (side size, k) block; a block passes when every graph in
    it agrees with the oracle and every certificate survives its audit.
    """
    return [
        _trial(f"oracle-eq[n={size} k={k}]", _oracle_block, graphs, k)
        for size in range(1, max_n + 1)
        for graphs in [list(enumerate_bipartite_block(size, size))]
        for k in (1, 2, 3)
    ]


def _prop_block(n_x: int, n_y: int) -> tuple[bool, str]:
    checked = 0
    for graph in enumerate_bipartite_block(n_x, n_y):
        cls = classify_s12_free(graph)
        free = cls.tag != "not-s12-free"
        # a not-free verdict carries the detector's witness already; the
        # detector is the independent check only for the free shapes
        witness = find_induced_star(graph, 1, 2) if free else cls.witness
        if free == (witness is not None):
            return False, f"classifier and detector disagree ({graph!r})"
        if free:
            rebuilt = rebuild_classified(graph, cls)
            if _degree_multiset(rebuilt) != _degree_multiset(graph):
                return False, f"rebuilt {cls.tag} degree multiset differs ({graph!r})"
            if cls.tag == "complete-minus-matching" and rebuilt != graph:
                return False, f"rebuilt non-edge matching differs ({graph!r})"
        checked += 1
    return True, f"{checked} graphs"


def run_prop_s12(max_n: int = 4) -> list[TrialResult]:
    """Classifier versus detector on every small connected host.

    One trial per class-size pair.  Free shapes must also rebuild to the
    same degree multiset, and a minus-matching host, rebuilt from its
    claimed matching, must be the host itself.
    """
    return [
        _trial(f"prop-s12[{n_x}x{n_y}]", _prop_block, n_x, n_y)
        for n_x in range(1, max_n + 1)
        for n_y in range(1, max_n + 1)
    ]


def _degree_multiset(graph: BipartiteGraph) -> list[list[int]]:
    return [sorted(degrees) for degrees in graph.degrees()]


# Every suite, in the CLI's order: its runner, and whether it takes a seed.
_SUITES = {
    "cor4": (run_cor4, True),
    "cor5": (run_cor5, True),
    "thm3": (run_thm3, True),
    "oracle-eq": (run_oracle_eq, False),
    "prop-s12": (run_prop_s12, False),
    "sharp-s13": (run_sharp_s13, True),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, trials: int | None = None, seed: int | None = None) -> list[TrialResult]:
    """Run one named suite.  For a seeded suite ``trials`` (at least 1)
    overrides its default count and ``seed`` its first seed, None reading
    as 0.  The exhaustive suites take neither: ParamInvalidError when
    either is given."""
    if trials is not None and trials < 1:
        raise ParamInvalidError(f"trials must be at least 1, got {trials}")
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    run, seeded = _SUITES[name]
    if seeded:
        return run(seed=seed or 0) if trials is None else run(trials, seed or 0)
    if trials is not None or seed is not None:
        raise ParamInvalidError(f"{name} is exhaustive: it takes no --trials or --seed")
    return run()
