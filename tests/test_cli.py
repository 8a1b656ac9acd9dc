"""Exit codes, file outputs, and stdout formats of the command line."""

from __future__ import annotations

import io
import os
import resource
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bifactor import (
    StuckReport,
    cli,
    complete_bipartite,
    complete_bipartite_minus_matching,
    cycle_graph,
    double_graph,
    make_certificate,
    parse_graph,
    path_graph,
    serialize_graph,
    star_pair_graph,
)
from bifactor.cli import main
from bifactor.connect import _build_stuck_report, check_factor
from bifactor.errors import StructureUnrecognizedError, TheoremContradictionError
from bifactor.factors import DegreeDemand, audit_certificate
from bifactor.generators import MODELS
from bifactor.graph import MAX_CLASS_SIZE, BipartiteGraph, Factor, parse_factor
from bifactor.suites import SUITE_NAMES, TrialResult

from conftest import chain_host


@pytest.fixture
def graph_file(tmp_path):
    def write(graph, name="host.graph"):
        path = tmp_path / name
        path.write_text(serialize_graph(graph))
        return str(path)

    return write


class TestFactorCommand:
    def test_success_writes_factor_file(self, graph_file, tmp_path, capsys):
        path = graph_file(complete_bipartite(2, 2))
        assert main(["factor", path, "--k", "1"]) == 0
        out = tmp_path / "host.graph.factor"
        assert out.read_text() == "factor 1 2\n0 0\n1 1\n"
        assert "factor written" in capsys.readouterr().out

    def test_infeasible_writes_violator(self, graph_file, tmp_path):
        path = graph_file(path_graph(4))
        assert main(["factor", path, "--k", "2"]) == 2
        out = tmp_path / "host.graph.violator"
        assert out.read_text() == "violator 1\n0\nlhs 2\nrhs 1\n"

    def test_explicit_out_path(self, graph_file, tmp_path):
        path = graph_file(complete_bipartite(2, 2))
        target = str(tmp_path / "m.factor")
        assert main(["factor", path, "--k", "1", "--out", target]) == 0
        assert (tmp_path / "m.factor").exists()

    @pytest.mark.parametrize(
        "adj_x, adj_y, problem",
        [
            # (0, 1) is the one non-edge of the host
            ([[1], [0]], [[1], [0]], "edge (0, 1) not in host"),
            ([[0], []], [[0], []], "X degrees [1, 0] != 1"),
        ],
        ids=["non-host-edge", "wrong-degree"],
    )
    def test_factor_failing_its_check_is_not_written(
        self, graph_file, tmp_path, monkeypatch, capsys, adj_x, adj_y, problem
    ):
        """The flow's factor is checked against the host and k before it is
        written; a wrong one is a contradiction, reported on one line."""
        host = BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
        monkeypatch.setattr(
            cli, "find_f_factor", lambda graph, demand: Factor._from_adjacency(graph, adj_x, adj_y)
        )
        path = graph_file(host)
        assert main(["factor", path, "--k", "1"]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: flow factor failed its check: {problem}\n"
        assert os.listdir(tmp_path) == ["host.graph"]

    def test_negative_k_is_usage_error(self, graph_file):
        assert main(["factor", graph_file(complete_bipartite(2, 2)), "--k", "-1"]) == 64

    def test_missing_file(self):
        with pytest.raises(SystemExit) as err:
            main(["factor", "/no/such/file", "--k", "1"])
        assert err.value.code == 64

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("bipartite 2 2 1\n9 9\n")
        with pytest.raises(SystemExit) as err:
            main(["factor", str(bad), "--k", "1"])
        assert err.value.code == 64
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_file_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_bytes(b"bipartite 2 2 1\n0 \xff\n")
        with pytest.raises(SystemExit) as err:
            main(["factor", str(bad), "--k", "1"])
        assert err.value.code == 64
        assert "line 2: file is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_empty_graph_is_usage_error(self, graph_file, tmp_path, capsys, k):
        """The vertexless graph has no degree, so no factor file can state one."""
        path = graph_file(BipartiteGraph(0, 0, []))
        assert main(["factor", path, "--k", k]) == 64
        assert "no vertices" in capsys.readouterr().err
        assert not (tmp_path / "host.graph.factor").exists()


class TestDeepAugmentingPath:
    """``factor`` on a chain host whose augmenting path is far deeper than
    the interpreter's recursion limit, run as a separate process."""

    N = 2000

    def _run(self, path, k):
        proc = subprocess.run(
            [sys.executable, "-m", "bifactor.cli", "factor", path, "--k", str(k)],
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in proc.stdout + proc.stderr
        return proc.returncode

    def test_factor_written(self, graph_file, tmp_path):
        graph = chain_host(self.N)
        assert self._run(graph_file(graph), 1) == 0
        factor = parse_factor((tmp_path / "host.graph.factor").read_text(), graph)
        check_factor(graph, factor, 1, connected=False)

    def test_violator_written(self, graph_file, tmp_path):
        graph = chain_host(self.N)
        assert self._run(graph_file(graph), 2) == 2
        lines = (tmp_path / "host.graph.violator").read_text().splitlines()
        size = int(lines[0].split()[1])
        a = tuple(int(line) for line in lines[1 : 1 + size])
        demand = DegreeDemand.uniform(graph, 2)
        cert = make_certificate(graph, demand, a)
        assert lines[1 + size :] == [f"lhs {cert.lhs}", f"rhs {cert.rhs}"]
        assert audit_certificate(graph, demand, cert)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestHeaderSizeCap:
    """A one-line file declaring huge classes is a parse error, refused
    before one adjacency list per declared vertex is allocated.  Each
    command runs as a separate process limited to 1 GiB of address space,
    so allocating for the header would end in a MemoryError traceback."""

    @pytest.mark.parametrize(
        "command, options",
        [
            ("factor", ["--k", "1"]),
            ("connect", ["--k", "2", "--l", "3"]),
            ("classify", []),
            ("detect", ["--k", "1", "--l", "2"]),
        ],
    )
    def test_usage_error_without_traceback(self, tmp_path, command, options):
        path = tmp_path / "huge.graph"
        path.write_text("bipartite 99999999 99999999 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "bifactor.cli", command, str(path), *options],
            capture_output=True,
            text=True,
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 64
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "line 1: class size above" in proc.stderr


class TestConnectCommand:
    def test_dense_host(self, graph_file, tmp_path):
        g = complete_bipartite_minus_matching(13, [(i, i) for i in range(13)])
        path = graph_file(g)
        assert main(["connect", path, "--k", "2", "--l", "3"]) == 0
        text = (tmp_path / "host.graph.connected").read_text()
        assert text.startswith("factor 2 26\n")
        assert "cycle X0 " in text
        assert parse_factor(text, g).is_connected()  # the cycle line is checked

    def test_hamilton_pipeline(self, graph_file, tmp_path):
        g = double_graph(cycle_graph(3))
        path = graph_file(g)
        assert main(["connect", path, "--k", "2", "--l", "3", "--hamilton"]) == 0
        text = (tmp_path / "host.graph.connected").read_text()
        assert "cycle " in text
        assert parse_factor(text, g).is_connected()

    def test_hamilton_weave(self, graph_file, tmp_path, capsys):
        """A doubled 6-cycle labelled quadrilateral by quadrilateral: the
        flow's 2-factor is three quadrilaterals, no exchange merges them,
        and the written cycle is the one woven from the stuck state."""
        edges = []
        for i in range(3):
            j = (i + 1) % 3
            edges += [(2 * i + a, 2 * i + b) for a in (0, 1) for b in (0, 1)]
            edges += [(2 * j + a, 2 * i + b) for a in (0, 1) for b in (0, 1)]
        host = BipartiteGraph(6, 6, edges)
        path = graph_file(host)
        assert main(["factor", path, "--k", "2"]) == 0
        assert "(3 components)" in capsys.readouterr().out
        assert main(["connect", path, "--k", "2", "--l", "3", "--hamilton"]) == 0
        assert (tmp_path / "host.graph.connected").read_text() == (
            "factor 2 12\n0 0\n0 5\n1 0\n1 1\n2 1\n2 2\n3 2\n3 3\n4 3\n4 4\n5 4\n5 5\n"
            "cycle X0 Y0 X1 Y1 X2 Y2 X3 Y3 X4 Y4 X5 Y5\n"
        )
        parse_factor((tmp_path / "host.graph.connected").read_text(), host)

    def test_hamilton_requires_k2(self, graph_file):
        path = graph_file(complete_bipartite(5, 5))
        assert main(["connect", path, "--k", "3", "--l", "3", "--hamilton"]) == 64

    def test_hamilton_refuses_other_l(self, graph_file, tmp_path, capsys):
        """The Hamilton pipeline is fixed at the (1,3) pattern, so an --l
        other than 3 is refused, not ignored."""
        path = graph_file(double_graph(cycle_graph(3)))
        assert main(["connect", path, "--k", "2", "--l", "9", "--hamilton"]) == 64
        assert "--hamilton needs --k 2 --l 3" in capsys.readouterr().err
        assert not (tmp_path / "host.graph.connected").exists()

    def test_hypothesis_violation(self, graph_file, capsys):
        path = graph_file(complete_bipartite(5, 5))  # min degree too low
        assert main(["connect", path, "--k", "2", "--l", "3"]) == 4
        assert "minimum degree" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "generated, extra, pair",
        [
            (["--n", "24", "--seed", "1", "--k", "2", "--p", "0.7"], [], "(2,3)"),
            (["--n", "20", "--seed", "4", "--k", "4", "--p", "0.5"], ["--hamilton"], "(1,3)"),
        ],
    )
    def test_star_pair_refusal(self, tmp_path, capsys, generated, extra, pair):
        """Dense random hosts that pass every other hypothesis: the refusal
        exits 4 with one stderr line and writes no file."""
        path = str(tmp_path / "host.txt")
        assert main(["generate", "--model", "min-degree-random", *generated, "--out", path]) == 0
        capsys.readouterr()
        assert main(["connect", path, "--k", "2", "--l", "3", *extra]) == 4
        assert capsys.readouterr().err == (
            f"error: hypothesis violated: skl_free (graph contains an induced {pair} star pair)\n"
        )
        assert os.listdir(tmp_path) == ["host.txt"]

    def test_parameter_gate(self, graph_file):
        path = graph_file(complete_bipartite(5, 5))
        assert main(["connect", path, "--k", "1", "--l", "2"]) == 64

    @pytest.mark.parametrize("extra", [[], ["--hamilton"]])
    def test_empty_graph_is_usage_error(self, graph_file, capsys, extra):
        path = graph_file(BipartiteGraph(0, 0, []))
        assert main(["connect", path, "--k", "2", "--l", "3", *extra]) == 64
        assert "no vertices" in capsys.readouterr().err

    def test_stuck_report_written(self, graph_file, tmp_path, monkeypatch, capsys):
        """The stuck exit path cannot be reached through honest inputs, so
        the pipeline is stubbed to raise with a genuine report attached."""
        g = BipartiteGraph(
            4, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (0, 2)]
        )
        f = Factor(g, [e for e in g.edge_list if e != (0, 2)])
        report = _build_stuck_report(g, f, 2, 3)
        assert isinstance(report, StuckReport)

        def boom(graph, k, l):
            raise TheoremContradictionError("stuck", report=report)

        monkeypatch.setattr(cli, "connected_k_factor", boom)
        path = graph_file(g)
        assert main(["connect", path, "--k", "2", "--l", "3"]) == 3
        text = (tmp_path / "host.graph.stuck").read_text()
        assert "EQ10 ALL HOLDS" in text
        assert "report written" in capsys.readouterr().err

    def test_unrecognized_stuck_report_written(self, graph_file, tmp_path, monkeypatch, capsys):
        """The Hamilton pipeline's refusal carries its stuck report too."""
        g = BipartiteGraph(
            4, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (0, 2)]
        )
        f = Factor(g, [e for e in g.edge_list if e != (0, 2)])
        report = _build_stuck_report(g, f, 2, 3)

        def boom(graph):
            raise StructureUnrecognizedError("not chained", report=report)

        monkeypatch.setattr(cli, "hamilton_s13", boom)
        path = graph_file(g)
        assert main(["connect", path, "--k", "2", "--l", "3", "--hamilton"]) == 3
        text = (tmp_path / "host.graph.stuck").read_text()
        assert "EQ10 ALL HOLDS" in text
        assert capsys.readouterr().err == f"error: not chained; report written to {path}.stuck\n"

    def test_contradiction_without_report(self, graph_file, tmp_path, monkeypatch, capsys):
        """A contradiction that carries no report exits 3 with its message
        and writes no file."""

        def boom(graph, k, l):
            raise TheoremContradictionError("injected")

        monkeypatch.setattr(cli, "connected_k_factor", boom)
        path = graph_file(complete_bipartite(4, 4))
        assert main(["connect", path, "--k", "2", "--l", "3"]) == 3
        assert capsys.readouterr() == ("", "error: injected\n")
        assert os.listdir(tmp_path) == ["host.graph"]

    def test_contradicting_certificate_written(self, graph_file, tmp_path, monkeypatch):
        g = complete_bipartite(4, 4)
        cert = make_certificate(path_graph(4), DegreeDemand((2, 2), (2, 2)), (0,))

        def boom(graph, k, l):
            raise TheoremContradictionError("no factor", report=cert)

        monkeypatch.setattr(cli, "connected_k_factor", boom)
        path = graph_file(g)
        assert main(["connect", path, "--k", "2", "--l", "3"]) == 3
        assert (tmp_path / "host.graph.stuck").read_text().startswith("violator 1\n")


class TestDetectCommand:
    def test_free_host(self, graph_file, capsys):
        assert main(["detect", graph_file(complete_bipartite(3, 3)), "--k", "1", "--l", "2"]) == 0
        assert capsys.readouterr().out == "FREE\n"

    def test_witness_host(self, graph_file, tmp_path, capsys):
        path = graph_file(star_pair_graph(1, 2))
        target = str(tmp_path / "w.star")
        assert main(["detect", path, "--k", "1", "--l", "2", "--out", target]) == 0
        out = capsys.readouterr().out
        assert out.startswith("star 1 2\n")
        assert (tmp_path / "w.star").read_text() == out

    def test_bad_arms(self, graph_file):
        assert main(["detect", graph_file(complete_bipartite(2, 2)), "--k", "0", "--l", "1"]) == 64

    def test_deep_leaf_search(self, graph_file, capsys):
        """1,200 k-leaves, past the recursion limit, still get a witness."""
        path = graph_file(star_pair_graph(1200, 1))
        assert main(["detect", path, "--k", "1200", "--l", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["star 1200 1", "centerU X 0", "centerV Y 0"]
        assert lines[3:-1] == [f"leafU Y {j}" for j in range(1, 1201)]
        assert lines[-1] == "leafV X 1"


class TestClassifyCommand:
    def test_path(self, graph_file, capsys):
        assert main(["classify", graph_file(path_graph(5))]) == 0
        assert capsys.readouterr().out == "path\n"

    def test_near_complete_lists_removed_pairs(self, graph_file, capsys):
        g = complete_bipartite_minus_matching(4, [(0, 0), (2, 2)])
        assert main(["classify", graph_file(g)]) == 0
        assert capsys.readouterr().out == (
            "complete-minus-matching\nremoved 0 0\nremoved 2 2\n"
        )

    def test_witness_host(self, graph_file, capsys):
        assert main(["classify", graph_file(star_pair_graph(1, 2))]) == 0
        out = capsys.readouterr().out
        assert out.startswith("not-s12-free\n")
        assert "star 1 2" in out

    def test_disconnected_rejected(self, graph_file):
        g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        assert main(["classify", graph_file(g)]) == 64

    def test_empty_graph_rejected(self, graph_file, capsys):
        assert main(["classify", graph_file(BipartiteGraph(0, 0, []))]) == 64
        out, err = capsys.readouterr()
        assert out == "" and "at least one vertex" in err


class TestGenerateCommand:
    def test_stdout_round_trip(self, capsys):
        assert main(["generate", "--model", "double-cycle", "--n", "3"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert (g.n_x, g.n_y, g.m) == (6, 6, 24)

    def test_out_file(self, tmp_path, capsys):
        target = str(tmp_path / "g.graph")
        code = main(
            ["generate", "--model", "k-minus-matching", "--n", "6", "--k", "2",
             "--seed", "9", "--out", target]
        )
        assert code == 0
        assert parse_graph((tmp_path / "g.graph").read_text()).m == 34
        assert "graph written" in capsys.readouterr().out

    def test_unknown_model_rejected_by_parser(self):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--model", "erdos", "--n", "4"])
        assert err.value.code == 64

    def test_invalid_parameters(self):
        assert main(["generate", "--model", "k-regular-union", "--n", "3", "--k", "9"]) == 64

    @pytest.mark.parametrize(
        "model, n",
        [(model, MAX_CLASS_SIZE + 1) for model in MODELS]
        + [("double-cycle", MAX_CLASS_SIZE // 2 + 1)],
    )
    def test_class_size_cap_without_traceback(self, model, n):
        """Classes above the graph-file limit are refused before anything is
        allocated; the 1 GiB address-space limit turns an allocation into a
        MemoryError traceback instead."""
        proc = subprocess.run(
            [sys.executable, "-m", "bifactor.cli", "generate", "--model", model,
             "--n", str(n), "--k", "2"],
            capture_output=True,
            text=True,
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 64
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stdout == ""


    def test_out_of_memory_without_traceback(self, monkeypatch, capsys):
        """A dense model near the class-size cap can exhaust memory while
        its edges are built; main reports that instead of a traceback."""

        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "generate", exhausted)
        assert main(["generate", "--model", "k-minus-matching", "--n", "4"]) == 64
        assert capsys.readouterr().err == "error: out of memory\n"


class TestThresholdCommand:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["threshold", "--k", "2", "--l", "3"], "12\n"),
            (["threshold", "--k", "3", "--l", "3"], "18\n"),
            (["threshold", "--k", "2", "--l", "2"], "8\n"),
            (["threshold", "--k", "2", "--l", "3", "--m", "2"], "18\n"),
            (["threshold", "--k", "1", "--l", "1", "--m", "1"], "2\n"),
            (["threshold", "--k", "3", "--l", "2", "--raw"], "16\n"),
        ],
    )
    def test_values(self, argv, expected, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_gate(self, capsys):
        assert main(["threshold", "--k", "1", "--l", "2"]) == 64

    def test_m_and_raw_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["threshold", "--k", "2", "--l", "3", "--m", "2", "--raw"])
        assert err.value.code == 64
        out, err_text = capsys.readouterr()
        assert out == "" and "not allowed with argument" in err_text


class TestVerifyCommand:
    def test_small_pass_run(self, capsys):
        assert main(["verify", "cor4", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "cor4[00] PASS" in out
        assert out.strip().endswith("SUITE cor4 2/2")

    def test_failure_sets_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "run_suite", lambda *a, **kw: [TrialResult("t[0]", False, "boom")]
        )
        assert main(["verify", "cor4"]) == 1
        out = capsys.readouterr().out
        assert "t[0] FAIL  boom" in out
        assert "SUITE cor4 0/1" in out

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        assert main(["verify", "cor4", "--trials", trials]) == 64
        out, err = capsys.readouterr()
        assert out == "" and "trials must be at least 1" in err

    @pytest.mark.parametrize("suite", ["oracle-eq", "prop-s12"])
    @pytest.mark.parametrize("option", [["--trials", "2"], ["--seed", "1"]])
    def test_exhaustive_suite_refuses_trials_and_seed(self, capsys, suite, option):
        assert main(["verify", suite, *option]) == 64
        out, err = capsys.readouterr()
        assert out == "" and f"{suite} is exhaustive: it takes no --trials or --seed" in err

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nope"])
        assert err.value.code == 64


class TestUnwritableOut:
    """An --out path that cannot be written is a usage error (64), named
    on stderr like an unreadable graph file, not a traceback."""

    def _assert_cannot_write(self, argv, target, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64
        out, errtext = capsys.readouterr()
        assert errtext.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in out + errtext

    def test_factor(self, graph_file, tmp_path, capsys):
        target = str(tmp_path / "missing" / "x")
        argv = ["factor", graph_file(complete_bipartite(2, 2)), "--k", "1", "--out", target]
        self._assert_cannot_write(argv, target, capsys)

    def test_factor_violator(self, graph_file, tmp_path, capsys):
        target = str(tmp_path / "missing" / "x")
        argv = ["factor", graph_file(path_graph(4)), "--k", "2", "--out", target]
        self._assert_cannot_write(argv, target, capsys)

    def test_connect(self, graph_file, tmp_path, capsys):
        g = complete_bipartite_minus_matching(13, [(i, i) for i in range(13)])
        target = str(tmp_path / "missing" / "x")
        argv = ["connect", graph_file(g), "--k", "2", "--l", "3", "--out", target]
        self._assert_cannot_write(argv, target, capsys)

    def test_connect_stuck_report(self, graph_file, tmp_path, monkeypatch, capsys):
        cert = make_certificate(path_graph(4), DegreeDemand((2, 2), (2, 2)), (0,))

        def boom(graph, k, l):
            raise TheoremContradictionError("no factor", report=cert)

        monkeypatch.setattr(cli, "connected_k_factor", boom)
        target = str(tmp_path / "missing" / "x")
        argv = ["connect", graph_file(complete_bipartite(4, 4)), "--k", "2", "--l", "3",
                "--out", target]
        self._assert_cannot_write(argv, target, capsys)

    def test_detect(self, graph_file, tmp_path, capsys):
        target = str(tmp_path / "missing" / "x")
        argv = ["detect", graph_file(star_pair_graph(1, 2)), "--k", "1", "--l", "2",
                "--out", target]
        self._assert_cannot_write(argv, target, capsys)

    def test_generate(self, tmp_path, capsys):
        target = str(tmp_path / "missing" / "x")
        argv = ["generate", "--model", "double-cycle", "--n", "3", "--out", target]
        self._assert_cannot_write(argv, target, capsys)


def _run_main(argv):
    """Exit code, stdout and stderr of one in-process main call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class TestParserReuse:
    def test_one_parser_serves_every_call(self, graph_file, tmp_path):
        """main builds its parser once per process, and a reused parser
        gives each call the outcome a freshly built one gives."""
        path = graph_file(complete_bipartite(2, 2))
        calls = [
            ["factor", path, "--k", "1", "--out", str(tmp_path / "a.factor")],
            ["factor", path, "--k", "one"],
            ["threshold", "--k", "2", "--l", "3"],
            ["factor", path, "--k", "1", "--out", str(tmp_path / "b.factor")],
        ]
        reused = []
        parsers = set()
        for argv in calls:
            reused.append(_run_main(argv))
            parsers.add(id(cli.build_parser()))
        assert len(parsers) == 1
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(_run_main(argv))
        assert reused == fresh
        assert [rc for rc, _, _ in reused] == [0, 64, 0, 0]
        assert "invalid int value: 'one'" in reused[1][2]
        assert (tmp_path / "a.factor").read_text() == (tmp_path / "b.factor").read_text()


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 64

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bifactor.cli", "threshold", "--k", "2", "--l", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "12\n"


# A parameter whose thresholds have more digits than str() converts by
# default (4300), so formatting them raises ValueError.
HUGE = 10**1500
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python has no limit on integer string conversion",
)


@needs_digit_limit
class TestHugeParameters:
    def test_threshold_is_usage_error(self, capsys):
        assert main(["threshold", "--k", str(HUGE), "--l", str(2 * HUGE)]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")

    def test_connect_ends_in_an_exit_code(self, graph_file, capsys):
        path = graph_file(complete_bipartite(2, 2))
        assert main(["connect", path, "--k", str(HUGE), "--l", str(2 * HUGE)]) in (4, 64)
        assert capsys.readouterr().err.startswith("error:")


# Small valid graph files for the fuzz test to mutate; every class has at
# most 8 vertices.
FUZZ_SEEDS = [
    serialize_graph(g).encode()
    for g in (
        BipartiteGraph(0, 0, []),
        complete_bipartite(2, 2),
        path_graph(5),
        cycle_graph(4),
        star_pair_graph(1, 2),
        double_graph(cycle_graph(3)),
        complete_bipartite_minus_matching(8, [(i, i) for i in range(8)]),
    )
] + [b"# a comment\n\nbipartite 2 1 2\n0 0\n1 0\n"]
FUZZ_BYTES = st.one_of(st.sampled_from(b"0123456789 -#\n"), st.integers(0, 255))
FUZZ_PARAMS = st.sampled_from(["-1", "0", "1", "2", "3", str(HUGE)])


@st.composite
def mutated_files(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        i = draw(st.integers(0, len(data)))
        if op == "insert":
            data.insert(i, draw(FUZZ_BYTES))
        elif i < len(data):
            if op == "delete":
                del data[i]
            else:
                data[i] = draw(FUZZ_BYTES)
    return bytes(data)


# Stands for an --out path inside a directory that does not exist.
MISSING_DIR_OUT = "<missing>"


@st.composite
def command_lines(draw) -> list[str | None]:
    """An argv whose None stands for the graph file's path."""
    name = draw(st.sampled_from(["factor", "connect", "detect", "classify", "verify"]))
    if name == "verify":
        trials = draw(st.sampled_from(["-1", "0", "1"]))
        suites = ("cor4", "sharp-s13") if trials == "1" else SUITE_NAMES
        return ["verify", draw(st.sampled_from(suites)), "--trials", trials]
    argv = [name, None]
    if name != "classify":
        argv += ["--k", draw(FUZZ_PARAMS)]
    if name in ("connect", "detect"):
        argv += ["--l", draw(FUZZ_PARAMS)]
    if name == "connect" and draw(st.booleans()):
        argv.append("--hamilton")
    if name != "classify" and draw(st.integers(0, 3)) == 0:
        argv += ["--out", MISSING_DIR_OUT]
    return argv


def _declares_big_class(data: bytes) -> bool:
    """True when the file's header, read as parse_graph reads it, declares
    a class above 64 vertices."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return False
    for raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            parts = line.split()
            try:
                return len(parts) == 4 and max(int(parts[1]), int(parts[2])) > 64
            except ValueError:
                return False
    return False


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=mutated_files(), argv=command_lines())
    def test_every_outcome_is_an_exit_code(self, data, argv):
        """Mutated graph files, extreme arguments and --out paths in a
        missing directory end in a documented exit code; only the
        SystemExit(64) of argparse, the loader and the writer leave main,
        and only verify exits 1."""
        assume(not _declares_big_class(data))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "host.graph")
            with open(path, "wb") as fh:
                fh.write(data)
            missing = os.path.join(tmp, "missing", "out")
            argv = [path if a is None else missing if a == MISSING_DIR_OUT else a for a in argv]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    assert exc.code == 64
                    rc = 64
        assert rc in (0, 1, 2, 3, 4, 64)
        assert rc != 1 or argv[0] == "verify"
