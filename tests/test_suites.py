"""Verification suite plumbing on reduced trial counts."""

from __future__ import annotations

import functools
import itertools

import pytest

import bifactor.connect
import bifactor.suites
from bifactor import BipartiteGraph, Factor
from bifactor.cli import main
from bifactor.errors import (
    ParamInvalidError,
    RetryExhaustedError,
    StructureUnrecognizedError,
    TheoremContradictionError,
)
from bifactor.suites import (
    SUITE_NAMES,
    TrialResult,
    run_cor4,
    run_cor5,
    run_oracle_eq,
    run_prop_s12,
    run_sharp_s13,
    run_suite,
    run_thm3,
)


def test_suite_names_stable():
    assert SUITE_NAMES == ("cor4", "cor5", "thm3", "oracle-eq", "prop-s12", "sharp-s13")


@pytest.mark.parametrize("name, trials", [("cor4", 2), ("cor5", 1), ("sharp-s13", 2)])
def test_randomized_suites_small(name, trials):
    results = run_suite(name, trials=trials)
    assert len(results) == trials
    assert all(isinstance(r, TrialResult) and r.passed for r in results)
    assert all(r.name.startswith(name) for r in results)

def test_thm3_small():
    # 8 fixed doubled cycles always run ahead of the seeded trials
    results = run_suite("thm3", trials=2)
    assert len(results) == 10
    assert all(r.passed for r in results)


def test_seed_changes_instances():
    a = run_suite("cor4", trials=2, seed=0)
    b = run_suite("cor4", trials=2, seed=100)
    assert [r.passed for r in a] == [r.passed for r in b] == [True, True]
    assert [r.detail for r in a] != [] and all(r.detail for r in a)


@pytest.mark.parametrize("name", ["oracle-eq", "prop-s12"])
@pytest.mark.parametrize("option", [{"trials": 2}, {"seed": 0}])
def test_exhaustive_suites_take_no_trials_or_seed(name, option):
    with pytest.raises(ParamInvalidError, match=f"{name} is exhaustive"):
        run_suite(name, **option)


def test_seeded_suite_reads_no_seed_as_0():
    assert run_suite("sharp-s13", trials=2) == run_suite("sharp-s13", trials=2, seed=0)


def test_exhaustive_suites_reduced():
    assert all(r.passed for r in run_oracle_eq(max_n=3))
    assert all(r.passed for r in run_prop_s12(max_n=3))


def _raise_on_call(monkeypatch, name, nth, exc):
    """Make the nth call of ``bifactor.suites.<name>`` raise ``exc``."""
    real = getattr(bifactor.suites, name)
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        if next(calls) == nth:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(bifactor.suites, name, wrapper)


@pytest.mark.parametrize(
    "run, name, nth, exc, count, failing",
    [
        # calls 1-3 are the n=1 blocks, 4-8 the five 2+2 hosts at k=1
        (lambda: run_oracle_eq(max_n=2), "find_f_factor", 5,
         TheoremContradictionError("injected"), 6, "oracle-eq[n=2 k=1]"),
        # one host in each of 1x1, 1x2 and 2x1, then the five 2+2 hosts
        (lambda: run_prop_s12(max_n=2), "classify_s12_free", 5,
         StructureUnrecognizedError("injected"), 4, "prop-s12[2x2]"),
        (lambda: run_sharp_s13(3), "is_skl_free", 2,
         StructureUnrecognizedError("injected"), 3, "sharp-s13[01]"),
        (lambda: run_sharp_s13(3), "generate", 3,
         RetryExhaustedError("injected"), 3, "sharp-s13[02]"),
        (lambda: run_cor4(3), "generate", 2, ParamInvalidError("injected"), 3, "cor4[01]"),
        # generate builds only the seeded hosts, after the 8 doubled cycles
        (lambda: run_thm3(2), "generate", 1, ParamInvalidError("injected"), 10, "thm3[seeded n=5]"),
        (lambda: run_cor5(2), "connected_k_factor", 2, AssertionError("injected"), 2, "cor5[01]"),
    ],
    ids=["oracle-eq", "prop-s12", "sharp-s13-detector", "sharp-s13-generate", "cor4-generate",
         "thm3-generate", "cor5-assertion"],
)
def test_raising_pipeline_fails_only_its_trial(monkeypatch, run, name, nth, exc, count, failing):
    """A suite reports every trial when one call raises inside one of them."""
    _raise_on_call(monkeypatch, name, nth, exc)
    results = run()
    assert len(results) == count
    assert [r.name for r in results if not r.passed] == [failing]
    assert next(r.detail for r in results if not r.passed) == f"{type(exc).__name__}: injected"


def test_cli_prints_a_raising_trial_as_fail(monkeypatch, capsys):
    """Each block keeps its first 3 hosts, enough to reach the 5th flow call
    (the 2nd host of n=2 k=1) without the full 4+4 enumeration."""
    real = bifactor.suites.enumerate_bipartite_block
    monkeypatch.setattr(
        bifactor.suites, "enumerate_bipartite_block", lambda *a: itertools.islice(real(*a), 3)
    )
    _raise_on_call(monkeypatch, "find_f_factor", 5, TheoremContradictionError("injected"))
    assert main(["verify", "oracle-eq"]) == 1
    out, err = capsys.readouterr()
    assert "oracle-eq[n=2 k=1] FAIL  TheoremContradictionError: injected\n" in out
    assert out.endswith("SUITE oracle-eq 11/12\n") and err == ""


def _claims(exists):
    """brute_force_f_factor with its verdict replaced by ``exists``."""
    return lambda real: lambda *args: real(*args)._replace(exists=exists)


def _empty_factor(real):
    """find_f_factor with every factor it builds replaced by the empty one."""

    def solve(graph, demand):
        got = real(graph, demand)
        return Factor(graph, []) if isinstance(got, Factor) else got

    return solve


def _x_reversed(real):
    """rebuild_classified with the X side relabelled in reverse: the same
    degree multiset, another non-edge matching."""

    def rebuild(graph, cls):
        r = real(graph, cls)
        return BipartiteGraph(r.n_x, r.n_y, [(r.n_x - 1 - x, y) for x, y in r.edge_list])

    return rebuild


@pytest.mark.parametrize(
    "suite, max_n, name, wrong, trial, detail",
    [
        ("oracle-eq", 1, "brute_force_f_factor", _claims(True),
         "oracle-eq[n=1 k=2]", "flow says no, oracle built one (BipartiteGraph(1, 1, m=1))"),
        ("oracle-eq", 1, "audit_certificate", lambda real: lambda *args: False,
         "oracle-eq[n=1 k=2]", "certificate failed audit (BipartiteGraph(1, 1, m=1))"),
        ("oracle-eq", 1, "brute_force_f_factor", _claims(False),
         "oracle-eq[n=1 k=1]", "flow built one, oracle says no (BipartiteGraph(1, 1, m=1))"),
        ("oracle-eq", 1, "find_f_factor", _empty_factor,
         "oracle-eq[n=1 k=1]", "flow factor not 1-regular (BipartiteGraph(1, 1, m=1))"),
        ("prop-s12", 1, "find_induced_star", lambda real: lambda *args: "witness",
         "prop-s12[1x1]", "classifier and detector disagree (BipartiteGraph(1, 1, m=1))"),
        ("prop-s12", 1, "rebuild_classified", lambda real: lambda graph, cls: BipartiteGraph(1, 1, []),
         "prop-s12[1x1]", "rebuilt path degree multiset differs (BipartiteGraph(1, 1, m=1))"),
        ("prop-s12", 3, "rebuild_classified", _x_reversed,
         "prop-s12[2x3]", "rebuilt non-edge matching differs (BipartiteGraph(2, 3, m=5))"),
    ],
    ids=["flow-says-no", "audit", "oracle-says-no", "not-regular", "disagree", "degrees",
         "non-edges"],
)
def test_wrong_answer_fails_its_trial(monkeypatch, capsys, suite, max_n, name, wrong, trial, detail):
    """An exhaustive suite that gets a wrong answer prints the trial as FAIL
    with what went wrong, and verify exits 1.  The suite runs on classes
    up to ``max_n``."""
    runner = {"oracle-eq": "run_oracle_eq", "prop-s12": "run_prop_s12"}[suite]
    monkeypatch.setattr(
        bifactor.suites, runner, functools.partial(getattr(bifactor.suites, runner), max_n=max_n)
    )
    monkeypatch.setattr(bifactor.suites, name, wrong(getattr(bifactor.suites, name)))
    assert main(["verify", suite]) == 1
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines() if " FAIL " in line][0] == f"{trial} FAIL  {detail}"
    assert err == ""


def _record(log, fn):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.append((out, args, kwargs))
        return out

    return wrapper


def _assert_checked(checked, factor, k):
    assert any(a[1] is factor and a[2] == k and kw == {"connected": True} for _, a, kw in checked)


@pytest.mark.parametrize("seed", [0, 3])
def test_pipelines_check_what_the_suites_receive(monkeypatch, seed):
    """cor4, cor5 and thm3 leave the validity check to the pipelines, so
    every factor connected_k_factor or hamilton_s13 hands them must have
    passed check_factor with connected=True."""
    checked, returned = [], []
    monkeypatch.setattr(bifactor.connect, "check_factor", _record(checked, bifactor.connect.check_factor))
    for name in ("connected_k_factor", "hamilton_s13"):
        monkeypatch.setattr(bifactor.suites, name, _record(returned, getattr(bifactor.suites, name)))
    results = run_suite("cor4", 3, seed) + run_suite("cor5", 2, seed) + run_suite("thm3", 3, seed)
    assert all(r.passed for r in results)
    assert len(returned) == 3 + 2 + 8 + 3
    for factor, args, _ in returned:
        k = args[1] if len(args) > 1 else 2  # hamilton_s13 takes only the host
        _assert_checked(checked, factor, k)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_woven_cycle_is_checked(monkeypatch, m):
    """A doubled 2m-cycle labelled quadrilateral by quadrilateral: the
    flow's 2-factor is the m quadrilaterals, no exchange merges them, and
    hamilton_s13 returns the woven cycle, which must be checked too.  (The
    suite's doubled cycles never get here: their flow 2-factor connects.)"""
    edges = []
    for i in range(m):
        j = (i + 1) % m
        edges += [(2 * i + a, 2 * i + b) for a in (0, 1) for b in (0, 1)]
        edges += [(2 * j + a, 2 * i + b) for a in (0, 1) for b in (0, 1)]
    checked, woven = [], []
    monkeypatch.setattr(bifactor.connect, "check_factor", _record(checked, bifactor.connect.check_factor))
    monkeypatch.setattr(
        bifactor.connect, "_weave_quotient_cycle", _record(woven, bifactor.connect._weave_quotient_cycle)
    )
    cycle = bifactor.connect.hamilton_s13(BipartiteGraph(2 * m, 2 * m, edges))
    assert [out for out, _, _ in woven] == [cycle]
    _assert_checked(checked, cycle, 2)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")
