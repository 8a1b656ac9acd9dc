"""The four workloads: seeded inputs, one timed operation each, checks.

A workload builds a *pass*: a fixed list of operations whose inputs come
from the seed.  ``setup`` calls ``lap`` between hosts so that its time can
be scaled piecewise.  A run repeats whole passes, at least ``min_passes``.
``run`` is the timed part of an operation; ``render`` turns its result into
output bytes and ``check`` validates them, both outside the timed region.
``tail_q`` is the percentile reported as op_s_tail; it leaves at least ten
correct operations beyond it in ``min_passes`` passes.

Timed code calls bifactor through module attributes (``cli.main``,
``factors.find_f_factor``), so the traced run sees those calls.  Rendering
and checking use names bound at import, which the traced run never
rebinds.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from typing import NamedTuple

import bifactor.cli as cli
import bifactor.connect as connect
import bifactor.factors as factors
import bifactor.generators as generators
from bifactor.connect import StuckReport, check_factor, serialize_stuck_report
from bifactor.errors import BifactorError
from bifactor.factors import (
    DegreeDemand,
    ViolatorCertificate,
    audit_certificate,
    make_certificate,
    serialize_certificate,
)
from bifactor.generators import GenSpec
from bifactor.graph import BipartiteGraph, Factor, parse_factor, serialize_factor, serialize_graph

# Separates status text from the written file in an operation's output.
FILE = "=== file\n"


class Op(NamedTuple):
    label: str
    host: BipartiteGraph
    k: int
    argv: tuple[str, ...] = ()  # CLI workloads only
    out: str = ""  # file the CLI writes
    expect: int = 0  # expected exit code
    violator: tuple[int, ...] | None = None  # the only minimal violator, when known


def _write(directory, name, host):
    with open(os.path.join(directory, name), "w") as fh:
        fh.write(serialize_graph(host))


# -- CLI workloads ---------------------------------------------------------------


class _CliWorkload:
    """Operations are in-process ``bifactor.cli.main`` calls on graph files."""

    warmup = 3
    segments = 1
    min_passes = 2

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def render(self, op, raw):
        code, streams = raw
        text = ""
        if os.path.exists(op.out):
            with open(op.out) as fh:
                text = fh.read()
            os.remove(op.out)
        return f"exit {code}\n{streams}{FILE}{text}"

    def check(self, op, raw, text):
        code = raw[0]
        if code != op.expect:
            return f"exit {code}, expected {op.expect}"
        body = text.split(FILE, 1)[1]
        if code == 0:
            return _check_factor_text(body, op.host, op.k, self.connected) or self.extra_check(op, body)
        return _check_violator_text(body, op)

    def extra_check(self, op, body):
        return None


def _check_factor_text(text, host, k, connected):
    try:
        check_factor(host, parse_factor(text, host), k, connected)
    except (AssertionError, BifactorError) as exc:
        return f"factor check: {type(exc).__name__}: {exc}"
    return None


def _check_violator_text(text, op):
    lines = text.split()
    try:
        size = int(lines[1])
        a = tuple(int(v) for v in lines[2 : 2 + size])
        lhs, rhs = int(lines[3 + size]), int(lines[5 + size])
        ok_shape = lines[0] == "violator" and lines[2 + size] == "lhs" and lines[4 + size] == "rhs"
    except (IndexError, ValueError):
        return "violator file is malformed"
    if not ok_shape or len(lines) != 6 + size:
        return "violator file is malformed"
    demand = DegreeDemand.uniform(op.host, op.k)
    cert = make_certificate(op.host, demand, a)
    if (cert.lhs, cert.rhs) != (lhs, rhs):
        return f"violator totals {lhs} {rhs} differ from recomputed {cert.lhs} {cert.rhs}"
    problems = []
    if not audit_certificate(op.host, demand, cert, problems):
        return "violator fails audit: " + "; ".join(problems)
    if op.violator is not None and a != op.violator:
        return f"violator of size {len(a)} is not the planted minimal one of size {len(op.violator)}"
    return None


class DenseConnect(_CliWorkload):
    """``bifactor connect`` on K(n,n) minus a perfect matching."""

    name = "dense-connect"
    connected = True
    tail_q = 0.80  # 25 operations x 2 passes: 10 beyond

    def setup(self, seed, directory, span, lap):
        rng = random.Random(seed)
        ops = []
        for n in range(16, 41):
            # (k, l) alternates; (3, 3) needs minimum degree n - 1 to reach
            # threshold_c(3, 3) = 18.
            k, l = (3, 3) if n % 2 and n >= 19 else (2, 3)
            spec = GenSpec("k-minus-matching", n, seed=rng.getrandbits(32))
            host = span("generators.generate", generators.generate, spec)
            i = len(ops)
            path, out = f"h{i:02d}.graph", f"o{i:02d}.txt"
            _write(directory, path, host)
            argv = ("connect", path, "--k", str(k), "--l", str(l), "--out", out)
            ops.append(Op(f"n{n}-k{k}-l{l}", host, k, argv, out))
            lap()
        return ops

    def extra_check(self, op, body):
        if op.k != 2:
            return None
        cycles = [line.split()[1:] for line in body.splitlines() if line.startswith("cycle ")]
        n = op.host.n_x
        if len(cycles) != 1 or len(cycles[0]) != 2 * n or len(set(cycles[0])) != 2 * n:
            return "cycle line does not list every vertex once"
        factor = parse_factor(body, op.host)
        order = cycles[0]
        for i, label in enumerate(order):
            nxt = order[(i + 1) % len(order)]
            side = "X" if i % 2 == 0 else "Y"
            if label[0] != side:
                return f"cycle line does not alternate sides at {label}"
            x, y = (int(label[1:]), int(nxt[1:])) if side == "X" else (int(nxt[1:]), int(label[1:]))
            if (x, y) not in factor.edge_set:
                return f"cycle step {label}-{nxt} is not a factor edge"
        return None


def chain_host(n):
    """Path host whose only perfect matching is X_i-Y_(i+1), X_(n-1)-Y_0.

    Lowest-index-first augmentation first matches X_i-Y_i, so the last
    vertex needs an augmenting path through the whole chain.
    """
    edges = [(i, i) for i in range(n - 1)] + [(i, i + 1) for i in range(n - 1)]
    return BipartiteGraph(n, n, edges + [(n - 1, 0)])


def hall_host(a, n, rng):
    """Host with n + n vertices whose only minimal violator for k=1 is a
    planted set A of a X-vertices.

    A and a - 1 Y-vertices B form a path A0 B0 A1 ... B(a-2) A(a-1), so A
    has a - 1 neighbours while every proper subset of A has enough.  The
    other vertices form a block of their own that has a matching of its
    X side.  Labels are shuffled.
    """
    xs, ys = list(range(n)), list(range(n))
    rng.shuffle(xs)
    rng.shuffle(ys)
    a_set, b_set, rest_x, rest_y = xs[:a], ys[: a - 1], xs[a:], ys[a - 1 :]
    edges = set()
    for i in range(a):
        if i > 0:
            edges.add((a_set[i], b_set[i - 1]))
        if i < a - 1:
            edges.add((a_set[i], b_set[i]))
    for i, x in enumerate(rest_x):
        edges.update({(x, rest_y[i]), (x, rest_y[i + 1]), (x, rest_y[rng.randrange(len(rest_y))])})
    return BipartiteGraph(n, n, edges), tuple(sorted(a_set))


class FactorLarge(_CliWorkload):
    """``bifactor factor`` on large sparse hosts: feasible, certified
    infeasible, and deep augmenting paths."""

    name = "factor-large"
    connected = False
    min_passes = 4
    tail_q = 0.85  # 28 correct operations x 4 passes: 16 beyond; p90 swings with the seed

    def setup(self, seed, directory, span, lap):
        rng = random.Random(seed)
        hosts = []  # (label, host, k, expected exit, planted violator)
        for n in (300, 400, 500, 600, 800, 1000):
            # Drawing three disjoint permutations retries a seed-dependent
            # number of times (up to ~80 at n=600, 5 ms each at n=1000), which
            # would make set-up time swing with the seed; two need ~3 tries.
            delta = 3 if n <= 400 else 2
            spec = GenSpec("min-degree-random", n, seed=rng.getrandbits(32), k=delta, p=1.0 / n)
            host = span("generators.generate", generators.generate, spec)
            # A union of delta perfect matchings: a delta-factor exists.  A
            # vertex of degree delta rules out a (delta + 1)-factor.
            deg = [0] * n
            for x, _ in host.edge_list:
                deg[x] += 1
            if min(deg) > delta:
                raise RuntimeError(f"seed {seed}: min-degree-random n={n} has no degree-{delta} vertex")
            hosts.append((f"mdr-n{n}-k{delta}", host, delta, 0, None))
            hosts.append((f"mdr-n{n}-k{delta + 1}", host, delta + 1, 2, None))
            lap()
        for a in range(100, 301, 20):
            host, planted = hall_host(a, 2 * a, rng)
            hosts.append((f"hall-a{a}", host, 1, 2, planted))
            lap()
        # Straddles the recursion limit of the flow search: n <= 450
        # succeeds, n >= 500 raises RecursionError at the parent commit.
        for n in (350, 375, 400, 425, 450, 500, 525, 550, 575, 600):
            hosts.append((f"chain-n{n}", chain_host(n), 1, 0, None))
        ops = []
        paths = {}
        for label, host, k, expect, planted in hosts:
            i = len(ops)
            if id(host) not in paths:
                paths[id(host)] = f"h{len(paths):02d}.graph"
                _write(directory, paths[id(host)], host)
            out = f"o{i:02d}.txt"
            argv = ("factor", paths[id(host)], "--k", str(k), "--out", out)
            ops.append(Op(label, host, k, argv, out, expect, planted))
            lap()
        return ops


# -- library workloads -----------------------------------------------------------


class ConnectLoop:
    """``find_f_factor`` then ``connect_factor(trace=...)``; no star check."""

    name = "connect-loop"
    warmup = 3
    segments = 1
    min_passes = 2
    tail_q = 0.75  # 21 operations x 2 passes: 10 beyond

    def setup(self, seed, directory, span, lap):
        rng = random.Random(seed)
        ops = []
        # k=3 only at the small end: its move count swings with the seed
        # (11 to 21 moves at n=88), which would move the median operation.
        for n in range(40, 101, 4):
            for k in (2, 3) if n <= 56 else (2,):
                spec = GenSpec("k-minus-matching", n, seed=rng.getrandbits(32))
                host = span("generators.generate", generators.generate, spec)
                ops.append(Op(f"n{n}-k{k}", host, k))
                lap()
        return ops

    def run(self, op):
        start = factors.find_f_factor(op.host, DegreeDemand.uniform(op.host, op.k))
        moves = []
        result = connect.connect_factor(op.host, start, trace=moves)
        return start, result, moves

    def render(self, op, raw):
        start, result, moves = raw
        lines = [f"start {start.n_components}"]
        lines += [f"move {m.kind} {m.removed} {m.added} {count}" for m, count in moves]
        if isinstance(result, StuckReport):
            return "\n".join(lines) + "\n" + FILE + "stuck\n" + serialize_stuck_report(result)
        return "\n".join(lines) + "\n" + FILE + serialize_factor(result)

    def check(self, op, raw, text):
        start, result, moves = raw
        if not isinstance(start, Factor):
            return "no starting factor"
        if isinstance(result, StuckReport):
            return "connecting loop got stuck"
        counts = [start.n_components] + [count for _, count in moves]
        if any(b >= a for a, b in zip(counts, counts[1:])) or counts[-1] != 1:
            return f"component counts {counts} do not fall strictly to 1"
        return _check_factor_text(text.split(FILE, 1)[1], op.host, op.k, True)


class ExhaustiveSmall:
    """Every connected labelled 4+4 host, k in 1..3: flow solve, brute-force
    oracle, and certificate audit, as in the oracle-eq suite."""

    name = "exhaustive-small"
    warmup = 1000
    segments = 32  # the shuffled sweep is cut into 32 alike segments
    min_passes = 2  # a pass takes longer than 10 s
    tail_q = 0.99
    hosts = 36317

    def setup(self, seed, directory, span, lap):
        def enumerate_hosts():
            hosts = []
            for host in generators.enumerate_bipartite_block(4, 4):
                hosts.append(host)
                if len(hosts) % 1000 == 0:
                    lap()
            return hosts

        hosts = span("generators.enumerate_bipartite_block", enumerate_hosts)
        if len(hosts) != self.hosts:
            raise RuntimeError(f"expected {self.hosts} connected 4+4 hosts, got {len(hosts)}")
        ops = [Op(f"{i}/{k}", host, k) for i, host in enumerate(hosts) for k in (1, 2, 3)]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, op):
        demand = DegreeDemand.uniform(op.host, op.k)
        got = factors.find_f_factor(op.host, demand)
        verdict = generators.brute_force_f_factor(op.host, demand.f_x, demand.f_y)
        audited = (
            factors.audit_certificate(op.host, demand, got)
            if isinstance(got, ViolatorCertificate)
            else None
        )
        return got, verdict, audited

    def render(self, op, raw):
        got, verdict, audited = raw
        body = serialize_factor(got) if isinstance(got, Factor) else serialize_certificate(got)
        return f"{body}oracle {verdict.exists} {verdict.examined} audit {audited}\n"

    def check(self, op, raw, text):
        got, verdict, audited = raw
        if isinstance(got, Factor):
            if not verdict.exists:
                return "factor found where the oracle finds none"
            try:
                check_factor(op.host, got, op.k, False)
            except AssertionError as exc:
                return f"factor check: {exc}"
            return None
        if verdict.exists:
            return "certificate where the oracle finds a factor"
        if not audited:
            return "certificate fails audit"
        return None


WORKLOADS = {w.name: w for w in (DenseConnect(), ConnectLoop(), ExhaustiveSmall(), FactorLarge())}
