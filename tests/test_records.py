"""The result records: immutable named tuples with fixed fields, reprs and methods."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bifactor import (
    BipartiteGraph,
    DegreeDemand,
    Factor,
    GenSpec,
    Link,
    OracleVerdict,
    StarWitness,
    StructureClass,
    StuckReport,
    SwapMove,
    VertexRef,
    ViolatorCertificate,
)
from bifactor.connect import DegreeAuditRecord, LinkIsolation
from bifactor.suites import TrialResult

SRC = Path(__file__).resolve().parents[1] / "src"

X0, X1, X2 = (VertexRef("X", i) for i in range(3))
Y1, Y2 = VertexRef("Y", 1), VertexRef("Y", 2)
LINK = Link(X0, Y1, 0, 1)
FACTOR = Factor(BipartiteGraph(1, 1, [(0, 0)]), [(0, 0)])
X0_TEXT = "VertexRef(side='X', index=0)"
Y1_TEXT = "VertexRef(side='Y', index=1)"
LINK_TEXT = f"Link(u={X0_TEXT}, v={Y1_TEXT}, component_u=0, component_v=1)"

# (record, its fields in order, values for them, its repr); each repr is
# the text the records printed when they were frozen dataclasses
RECORDS = [
    (VertexRef, ("side", "index"), ("X", 0), X0_TEXT),
    (DegreeDemand, ("f_x", "f_y"), ((1, 2), (2, 1)), "DegreeDemand(f_x=(1, 2), f_y=(2, 1))"),
    (
        ViolatorCertificate,
        ("a", "lhs", "rhs", "per_vertex_rhs"),
        ((0, 2), 3, 2, ((1, 1), (4, 1))),
        "ViolatorCertificate(a=(0, 2), lhs=3, rhs=2, per_vertex_rhs=((1, 1), (4, 1)))",
    ),
    (Link, ("u", "v", "component_u", "component_v"), (X0, Y1, 0, 1), LINK_TEXT),
    (
        SwapMove,
        ("kind", "removed", "added"),
        ("primary", ((0, 1), (2, 3)), ((0, 3), (2, 1))),
        "SwapMove(kind='primary', removed=((0, 1), (2, 3)), added=((0, 3), (2, 1)))",
    ),
    (
        LinkIsolation,
        ("link", "joining_edges"),
        (LINK, ((1, 0),)),
        f"LinkIsolation(link={LINK_TEXT}, joining_edges=((1, 0),))",
    ),
    (
        DegreeAuditRecord,
        ("name", "vertex", "value", "bound", "ok"),
        ("inside-own-component", X0, 3, None, None),
        f"DegreeAuditRecord(name='inside-own-component', vertex={X0_TEXT}, value=3, bound=None, ok=None)",
    ),
    (
        StuckReport,
        (
            "factor", "links", "isolation", "neighborhoods_isolated", "degree_audits",
            "k", "l", "min_degree", "contradiction", "contradiction_vertices",
        ),
        (FACTOR, (), (), True, (), 1, None, 1, False, ()),
        "StuckReport(factor=Factor(m=1, components=1), links=(), isolation=(), "
        "neighborhoods_isolated=True, degree_audits=(), k=1, l=None, min_degree=1, "
        "contradiction=False, contradiction_vertices=())",
    ),
    (
        GenSpec,
        ("model", "n", "seed", "k", "p"),
        ("double-cycle", 5, 0, -1, 0.0),
        "GenSpec(model='double-cycle', n=5, seed=0, k=-1, p=0.0)",
    ),
    (
        OracleVerdict,
        ("exists", "witness", "examined"),
        (False, None, 7),
        "OracleVerdict(exists=False, witness=None, examined=7)",
    ),
    (
        StarWitness,
        ("k", "l", "center_u", "center_v", "leaves_u", "leaves_v"),
        (1, 2, X0, Y1, (Y2,), (X1, X2)),
        f"StarWitness(k=1, l=2, center_u={X0_TEXT}, center_v={Y1_TEXT}, "
        "leaves_u=(VertexRef(side='Y', index=2),), "
        "leaves_v=(VertexRef(side='X', index=1), VertexRef(side='X', index=2)))",
    ),
    (
        StructureClass,
        ("tag", "removed_matching", "witness"),
        ("path", None, None),
        "StructureClass(tag='path', removed_matching=None, witness=None)",
    ),
    (
        TrialResult,
        ("name", "passed", "detail"),
        ("cor4[n=8]", True, ""),
        "TrialResult(name='cor4[n=8]', passed=True, detail='')",
    ),
]


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, values, text):
    record = cls(*values)
    assert cls._fields == fields
    assert cls(**dict(zip(fields, values))) == record
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = cls(*values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert cls._make(values) == record and record._replace() == record
    assert record._asdict() == dict(zip(fields, values))


@pytest.mark.parametrize(
    "short, full",
    [
        (GenSpec("double-cycle", 5), GenSpec("double-cycle", 5, 0, -1, 0.0)),
        (StructureClass("path"), StructureClass("path", None, None)),
        (TrialResult("cor4[n=8]", True), TrialResult("cor4[n=8]", True, "")),
    ],
)
def test_defaults(short, full):
    assert short == full and repr(short) == repr(full)


def test_vertex_label_and_text():
    assert VertexRef("Y", 12).label == "Y12" == str(VertexRef("Y", 12))


def test_vertices_order_x_before_y_then_by_index():
    got = sorted([VertexRef("Y", 0), VertexRef("X", 3), VertexRef("Y", 2), VertexRef("X", 1)])
    assert got == [VertexRef("X", 1), VertexRef("X", 3), VertexRef("Y", 0), VertexRef("Y", 2)]
    assert VertexRef("X", 9) < VertexRef("Y", 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: VertexRef("Z", 0),
        lambda: VertexRef(side="Z", index=0),
        lambda: VertexRef("X", 0)._replace(side="Z"),
        lambda: VertexRef._make(("Z", 0)),
    ],
    ids=["position", "keyword", "replace", "make"],
)
def test_vertex_side_checked(build):
    with pytest.raises(ValueError, match=re.escape("side must be 'X' or 'Y', got 'Z'")):
        build()


def test_records_are_tuples():
    assert tuple(VertexRef("X", 1)) == ("X", 1)


def test_link_isolation():
    assert LinkIsolation(LINK, ()).isolated
    assert not LinkIsolation(LINK, ((1, 0),)).isolated


def test_star_witness_vertices():
    assert StarWitness(1, 2, X0, Y1, (Y2,), (X1, X2)).vertices() == (X0, Y1, Y2, X1, X2)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Run apart, since pytest itself imports both modules."""
    code = "import bifactor.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
