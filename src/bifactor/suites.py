"""Named verification suites behind ``bifactor verify``.

Each suite returns per-trial results; a trial is one seeded instance for
the randomized suites and one exhaustive block (a size/degree combination)
for the enumeration suites.  Pipeline errors fail the trial instead of
propagating, so a suite always reports all of its trials.
"""

from __future__ import annotations

from dataclasses import dataclass

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

SUITE_NAMES = ("cor4", "cor5", "thm3", "oracle-eq", "prop-s12", "sharp-s13")


@dataclass(frozen=True)
class TrialResult:
    name: str
    passed: bool
    detail: str = ""


def _cor_trial(name: str, n: int, seed: int, k: int, l: int) -> TrialResult:
    graph = generate(GenSpec("k-minus-matching", n=n, seed=seed))
    if graph.min_degree() != n - 1:
        return TrialResult(name, False, f"generator broke: min degree {graph.min_degree()}")
    try:
        connected_k_factor(graph, k, l)
    except (BifactorError, AssertionError) as exc:
        return TrialResult(name, False, f"{type(exc).__name__}: {exc}")
    return TrialResult(name, True, f"n={n}")


def run_cor4(trials: int = 25, seed: int = 0) -> list[TrialResult]:
    """Hamilton cycles via the (2,3) threshold on dense minus-matching hosts."""
    lo, hi = 13, 20
    return [
        _cor_trial(f"cor4[{t:02d}]", lo + t % (hi - lo + 1), seed + t, 2, 3)
        for t in range(trials)
    ]


def run_cor5(trials: int = 10, seed: int = 0) -> list[TrialResult]:
    """Connected 3-regular factors via the (3,3) threshold."""
    lo, hi = 19, 24
    return [
        _cor_trial(f"cor5[{t:02d}]", lo + t % (hi - lo + 1), seed + t, 3, 3)
        for t in range(trials)
    ]


def run_thm3(trials: int = 10, seed: int = 0) -> list[TrialResult]:
    """Hamilton cycles in (1,3)-pattern-free hosts of minimum degree 4.

    Fixed part: doubled cycles m = 3..10.  They never reach the stuck-state
    weave: the flow's 2-factor of each has two components, and
    ``connect_factor`` merges them.  The woven-cycle branch is exercised by
    ``test_woven_cycle_is_checked`` in ``tests/test_suites.py``, on doubled
    cycles labelled quadrilateral by quadrilateral.  Seeded part: dense
    minus-matching instances, pattern-freeness checked by ``hamilton_s13``
    itself.
    """
    results = []
    for m in range(3, 11):
        name = f"thm3[double m={m}]"
        graph = double_graph(cycle_graph(m))
        try:
            cycle = hamilton_s13(graph)
            ok = cycle.m == 4 * m
            results.append(
                TrialResult(name, ok, "" if ok else f"cycle length {cycle.m} != {4 * m}")
            )
        except (BifactorError, AssertionError) as exc:
            results.append(TrialResult(name, False, f"{type(exc).__name__}: {exc}"))
    lo, hi = 5, 12
    for t in range(trials):
        n = lo + t % (hi - lo + 1)
        name = f"thm3[seeded n={n}]"
        graph = generate(GenSpec("k-minus-matching", n=n, seed=seed + t))
        try:
            hamilton_s13(graph)
            results.append(TrialResult(name, True))
        except (BifactorError, AssertionError) as exc:
            results.append(TrialResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results


def run_sharp_s13(trials: int = 5, seed: int = 0) -> list[TrialResult]:
    """3-regular instances are always (1,3)-pattern-free; confirm by detector."""
    results = []
    for t in range(trials):
        n = 6 + t % 5
        name = f"sharp-s13[{t:02d}]"
        try:
            graph = generate(GenSpec("k-regular-union", n=n, k=3, seed=seed + t))
        except BifactorError as exc:
            results.append(TrialResult(name, False, f"{type(exc).__name__}: {exc}"))
            continue
        deg_x, deg_y = graph.degrees()
        if set(deg_x + deg_y) != {3}:
            results.append(TrialResult(name, False, "generator output not 3-regular"))
            continue
        free = is_skl_free(graph, 1, 3)
        results.append(TrialResult(name, free, "" if free else "detector found the pattern"))
    return results


def run_oracle_eq(max_n: int = 4) -> list[TrialResult]:
    """Flow verdicts against brute force on every small balanced host.

    One trial per (side size, k) block; a block passes when every graph in
    it agrees with the oracle and every certificate survives its audit.
    """
    results = []
    for size in range(1, max_n + 1):
        graphs = list(enumerate_bipartite_block(size, size))
        for k in (1, 2, 3):
            name = f"oracle-eq[n={size} k={k}]"
            checked = 0
            failure = ""
            for graph in graphs:
                demand = DegreeDemand.uniform(graph, k)
                got = find_f_factor(graph, demand)
                verdict = brute_force_f_factor(graph, [k] * size, [k] * size)
                if isinstance(got, ViolatorCertificate):
                    if verdict.exists:
                        failure = f"flow says no, oracle built one ({graph!r})"
                        break
                    if not audit_certificate(graph, demand, got):
                        failure = f"certificate failed audit ({graph!r})"
                        break
                else:
                    if not verdict.exists:
                        failure = f"flow built one, oracle says no ({graph!r})"
                        break
                    if got.regularity() != k:
                        failure = f"flow factor not {k}-regular ({graph!r})"
                        break
                checked += 1
            results.append(
                TrialResult(name, not failure, failure or f"{checked} graphs")
            )
    return results


def run_prop_s12(max_n: int = 4) -> list[TrialResult]:
    """Classifier versus detector on every small connected host.

    One trial per class-size pair.  Free shapes must also rebuild to the
    same degree multiset (and the same non-edge matching for the
    minus-matching class).
    """
    results = []
    for n_x in range(1, max_n + 1):
        for n_y in range(1, max_n + 1):
            name = f"prop-s12[{n_x}x{n_y}]"
            checked = 0
            failure = ""
            for graph in enumerate_bipartite_block(n_x, n_y):
                cls = classify_s12_free(graph)
                witness = find_induced_star(graph, 1, 2)
                if (cls.tag == "not-s12-free") != (witness is not None):
                    failure = f"classifier and detector disagree ({graph!r})"
                    break
                if cls.tag != "not-s12-free":
                    rebuilt = rebuild_classified(graph, cls)
                    if _degree_multiset(rebuilt) != _degree_multiset(graph):
                        failure = f"rebuilt {cls.tag} degree multiset differs ({graph!r})"
                        break
                    if cls.tag == "complete-minus-matching" and set(
                        cls.removed_matching or ()
                    ) != _non_edges(rebuilt):
                        failure = f"rebuilt non-edge matching differs ({graph!r})"
                        break
                checked += 1
            results.append(TrialResult(name, not failure, failure or f"{checked} graphs"))
    return results


def _degree_multiset(graph: BipartiteGraph) -> list[list[int]]:
    return [sorted(degrees) for degrees in graph.degrees()]


def _non_edges(graph: BipartiteGraph) -> set[tuple[int, int]]:
    return {
        (x, y)
        for x in range(graph.n_x)
        for y in range(graph.n_y)
        if not graph.has_edge(x, y)
    }


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> list[TrialResult]:
    """Run one named suite; ``trials`` (at least 1) overrides the suite's
    default count and is ignored by the exhaustive suites."""
    if trials is not None and trials < 1:
        raise ParamInvalidError(f"trials must be at least 1, got {trials}")
    seeded = {"cor4": run_cor4, "cor5": run_cor5, "thm3": run_thm3, "sharp-s13": run_sharp_s13}
    if name in seeded:
        return seeded[name](seed=seed) if trials is None else seeded[name](trials, seed)
    if name == "oracle-eq":
        return run_oracle_eq()
    if name == "prop-s12":
        return run_prop_s12()
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
