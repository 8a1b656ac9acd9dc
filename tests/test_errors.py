"""The one ``report`` slot that every package error carries."""

from __future__ import annotations

import inspect

import pytest

import bifactor.errors as errors
from bifactor import StuckReport, make_certificate, path_graph, star_pair_graph
from bifactor.connect import _build_stuck_report
from bifactor.errors import (
    BifactorError,
    GraphFormatError,
    HypothesisViolatedError,
    StructureUnrecognizedError,
    TheoremContradictionError,
)
from bifactor.factors import DegreeDemand
from bifactor.graph import BipartiteGraph, Factor
from bifactor.structure import find_induced_star

ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, BifactorError)
]


def _reports():
    """One report of each kind the package attaches: a certificate, a stuck
    report and a star witness."""
    cert = make_certificate(path_graph(4), DegreeDemand((2, 2), (2, 2)), (0,))
    g = BipartiteGraph(
        4, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (0, 2)]
    )
    stuck = _build_stuck_report(g, Factor(g, [e for e in g.edge_list if e != (0, 2)]), 2, 3)
    assert isinstance(stuck, StuckReport)
    witness = find_induced_star(star_pair_graph(2, 3), 2, 3)
    assert witness is not None
    return [cert, stuck, witness]


@pytest.mark.parametrize("cls", [TheoremContradictionError, StructureUnrecognizedError])
def test_raised_with_report_keeps_it(cls):
    for report in _reports():
        exc = cls("stuck", report=report)
        assert exc.report is report
        assert exc.args == ("stuck",) and str(exc) == "stuck"


def test_hypothesis_refusal_keeps_report_and_message():
    witness = _reports()[2]
    detail = "graph contains an induced (2,3) star pair"
    exc = HypothesisViolatedError("skl_free", detail, report=witness)
    assert exc.report is witness
    assert exc.hypothesis == "skl_free"
    assert str(exc) == f"hypothesis violated: skl_free ({detail})"
    bare = HypothesisViolatedError("connected")
    assert (bare.hypothesis, str(bare)) == ("connected", "hypothesis violated: connected")
    assert bare.report is None


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_defaults_to_no_report(cls):
    """Built the way the package builds it, every error has an empty slot."""
    assert cls("message").report is None


def test_format_error_with_line_has_no_report():
    assert GraphFormatError("bad edge", line=3).report is None
