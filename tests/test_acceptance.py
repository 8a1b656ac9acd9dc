"""Acceptance gate: every shipped guarantee, one printed verdict per line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each criterion is a test of its own, so a plain ``-v`` run names
the failing guarantee too.  The heavy suites execute once per module via
fixtures and are shared by the criteria that read them.
"""

from __future__ import annotations

import hashlib

import pytest

from bifactor import threshold_c, threshold_c_prime
from bifactor.cli import main
from bifactor.suites import (
    TrialResult,
    run_cor4,
    run_cor5,
    run_oracle_eq,
    run_prop_s12,
    run_sharp_s13,
    run_thm3,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _tally(results: list[TrialResult]) -> tuple[bool, str]:
    passed = sum(r.passed for r in results)
    failures = "; ".join(f"{r.name}: {r.detail}" for r in results if not r.passed)
    detail = f"{passed}/{len(results)} trials" + (f" ({failures})" if failures else "")
    return passed == len(results), detail


@pytest.fixture(scope="module")
def cor4_results():
    return run_cor4(trials=25, seed=0)


@pytest.fixture(scope="module")
def cor5_results():
    return run_cor5(trials=10, seed=0)


@pytest.fixture(scope="module")
def thm3_results():
    return run_thm3(trials=10, seed=0)


@pytest.fixture(scope="module")
def sharp_results():
    return run_sharp_s13(trials=5, seed=0)


@pytest.fixture(scope="module")
def oracle_results():
    return run_oracle_eq(max_n=4)


@pytest.fixture(scope="module")
def prop_results():
    return run_prop_s12(max_n=4)


# SHA-256 of each module fixture's results, one "name|passed|detail" line
# per trial; they pin the passing details (n=13, 36317 graphs) that
# ``bifactor verify`` does not print.
SUITE_DIGESTS = {
    "cor4": "bca5c2b31815a211f327904a2b9a94fcf18e8aba8ea4db437d22686cbb1d16bf",
    "cor5": "394378c1dd0ac50ff0a66495ba6be8746f5fc7f28f7e70ab5d9035002da07eca",
    "thm3": "c6062b2b8865bb7730bb8933164c5400a2b720101e67a8ef9a53d8b894130b0a",
    "sharp-s13": "0ec3672cf18ce6f9aaaf6432918b67339ca9d772ff87ec5578c324971ad8d5e0",
    "oracle-eq": "522b1922a5ba7e86ce469db614aa19cb6cd923851c03d39acbc70472a22794fb",
    "prop-s12": "69905b2b4111fd2e59874d9820ff378f72c2bf3664e5a37b291c1c9ec30cab2c",
}


def test_criterion_1_threshold_reproduction():
    got = (threshold_c(2, 3), threshold_c(3, 3), threshold_c_prime(3, 3, 2))
    _verdict(
        "criterion-1 threshold-reproduction",
        got == (12, 18, 18),
        f"c(2,3)={got[0]} c(3,3)={got[1]} c'(3,3,2)={got[2]} (want 12, 18, 18)",
    )


def test_criterion_2_hamilton_via_23_threshold(cor4_results):
    ok, detail = _tally(cor4_results)
    _verdict("criterion-2 cor4-hamilton", ok, detail)


def test_criterion_2_cli_entry(capsys):
    code = main(["verify", "cor4", "--trials", "25", "--seed", "7"])
    out = capsys.readouterr().out
    _verdict(
        "criterion-2 cli-verify",
        code == 0 and "SUITE cor4 25/25" in out,
        f"exit {code}, tail {out.strip().splitlines()[-1]!r}",
    )


def test_criterion_3_three_regular_via_33_threshold(cor5_results):
    ok, detail = _tally(cor5_results)
    _verdict("criterion-3 cor5-three-regular", ok, detail)


def test_criterion_4_hamilton_low_degree(thm3_results):
    ok, detail = _tally(thm3_results)
    _verdict("criterion-4 thm3-hamilton-min-degree-4", ok, detail)


def test_criterion_4_sharpness_remark(sharp_results):
    ok, detail = _tally(sharp_results)
    _verdict("criterion-4 sharp-s13-three-regular-free", ok, detail)


def test_criterion_5_oracle_equivalence(oracle_results):
    ok, detail = _tally(oracle_results)
    _verdict("criterion-5 oracle-equivalence", ok, detail)


def test_criterion_6_classification_agreement(prop_results):
    ok, detail = _tally(prop_results)
    _verdict("criterion-6 prop-s12-classification", ok, detail)


def test_criterion_7_no_contradictions_anywhere(
    cor4_results, cor5_results, thm3_results, sharp_results, oracle_results, prop_results
):
    """A stuck state or contradiction exception inside a suite fails its
    trial with the exception name in the detail; none may appear."""
    everything = (
        cor4_results + cor5_results + thm3_results
        + sharp_results + oracle_results + prop_results
    )
    tainted = [
        r
        for r in everything
        if "TheoremContradiction" in r.detail or "StructureUnrecognized" in r.detail
    ]
    _verdict(
        "criterion-7 no-contradictions",
        not tainted and bool(everything),
        f"{len(everything)} trials scanned, {len(tainted)} contradiction(s)",
    )


def test_suite_results_match_recorded_digests(
    cor4_results, cor5_results, thm3_results, sharp_results, oracle_results, prop_results
):
    suites = dict(zip(SUITE_DIGESTS, (
        cor4_results, cor5_results, thm3_results, sharp_results, oracle_results, prop_results
    )))
    changed = [
        name
        for name, results in suites.items()
        if hashlib.sha256(
            "\n".join(f"{r.name}|{r.passed}|{r.detail}" for r in results).encode()
        ).hexdigest() != SUITE_DIGESTS[name]
    ]
    _verdict(
        "suite-results-digests",
        not changed,
        f"{len(suites) - len(changed)}/{len(suites)} suites match"
        + (f" (changed: {', '.join(changed)})" if changed else ""),
    )
