"""Command-line front end.

Exit codes are part of the contract:

    0   success
    1   verification suite failure
    2   certified non-existence (violator written)
    3   connectivity search stuck (report written)
    4   pipeline hypothesis violated
    64  usage or parse error, out of memory, or a contradiction in
        ``factor``: a flow that stalls, or a factor failing check_factor
        (no file written)

Status goes to stdout; factors, certificates and reports go to files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .connect import (
    StuckReport,
    check_factor,
    connected_k_factor,
    cycle_order,
    hamilton_s13,
    serialize_stuck_report,
    threshold_c,
    threshold_c_prime,
    threshold_c_raw,
)
from .errors import (
    BifactorError,
    EmptyGraphError,
    GraphFormatError,
    HypothesisViolatedError,
    ParamInvalidError,
    TheoremContradictionError,
    StructureUnrecognizedError,
)
from .factors import (
    DegreeDemand,
    ViolatorCertificate,
    find_f_factor,
    serialize_certificate,
)
from .generators import GenSpec, MODELS, generate
from .graph import BipartiteGraph, parse_graph, serialize_factor, serialize_graph
from .structure import classify_s12_free, find_induced_star, serialize_star_witness
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_NO_FACTOR = 2
EXIT_STUCK = 3
EXIT_HYPOTHESIS = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load_graph(path: str) -> BipartiteGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        sys.stderr.write(f"error: cannot read {path}: {exc}\n")
        raise SystemExit(EXIT_USAGE) from None
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        sys.stderr.write(f"error: {path}: line {line}: file is not UTF-8 text\n")
        raise SystemExit(EXIT_USAGE) from None
    try:
        return parse_graph(text)
    except GraphFormatError as exc:
        sys.stderr.write(f"error: {path}: {exc}\n")
        raise SystemExit(EXIT_USAGE) from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {path}: {exc}\n")
        raise SystemExit(EXIT_USAGE) from None


def cmd_factor(args) -> int:
    graph = _load_graph(args.graph)
    if graph.n_vertices == 0:
        raise EmptyGraphError("graph has no vertices, so no factor has a degree")
    got = find_f_factor(graph, DegreeDemand.uniform(graph, args.k))
    if isinstance(got, ViolatorCertificate):
        out = args.out or args.graph + ".violator"
        _write(out, serialize_certificate(got))
        print(f"no {args.k}-regular factor: violator written to {out}")
        return EXIT_NO_FACTOR
    try:
        check_factor(graph, got, args.k, connected=False)
    except AssertionError as exc:
        raise TheoremContradictionError(f"flow factor failed its check: {exc}") from None
    out = args.out or args.graph + ".factor"
    _write(out, serialize_factor(got))
    print(f"factor written to {out} ({got.n_components} components)")
    return EXIT_OK


def cmd_connect(args) -> int:
    graph = _load_graph(args.graph)
    k, l = args.k, args.l
    if args.hamilton and (k, l) != (2, 3):
        raise ParamInvalidError("--hamilton needs --k 2 --l 3")
    try:
        if args.hamilton:
            factor = hamilton_s13(graph)
        else:
            factor = connected_k_factor(graph, k, l)
    except (TheoremContradictionError, StructureUnrecognizedError) as exc:
        report = exc.report
        out = args.out or args.graph + ".stuck"
        if isinstance(report, StuckReport):
            _write(out, serialize_stuck_report(report))
            sys.stderr.write(f"error: {exc}; report written to {out}\n")
        elif isinstance(report, ViolatorCertificate):
            _write(out, serialize_certificate(report))
            sys.stderr.write(f"error: {exc}; violator written to {out}\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return EXIT_STUCK
    out = args.out or args.graph + ".connected"
    cycle = cycle_order(factor) if k == 2 else None
    _write(out, serialize_factor(factor, cycle=cycle))
    print(f"connected {k}-regular factor written to {out}")
    return EXIT_OK


def cmd_detect(args) -> int:
    witness = find_induced_star(_load_graph(args.graph), args.k, args.l)
    if witness is None:
        print("FREE")
        return EXIT_OK
    text = serialize_star_witness(witness)
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_classify(args) -> int:
    cls = classify_s12_free(_load_graph(args.graph))
    print(cls.tag)
    if cls.tag == "complete-minus-matching":
        for x, y in cls.removed_matching or ():
            print(f"removed {x} {y}")
    if cls.witness is not None:
        sys.stdout.write(serialize_star_witness(cls.witness))
    return EXIT_OK


def cmd_generate(args) -> int:
    spec = GenSpec(model=args.model, n=args.n, seed=args.seed, k=args.k, p=args.p)
    graph = generate(spec)
    text = serialize_graph(graph)
    if args.out:
        _write(args.out, text)
        print(f"graph written to {args.out} ({graph.n_x}+{graph.n_y} vertices, {graph.m} edges)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_threshold(args) -> int:
    if args.m is not None:
        print(threshold_c_prime(args.k, args.l, args.m))
    elif args.raw:
        print(threshold_c_raw(args.k, args.l))
    else:
        print(threshold_c(args.k, args.l))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, trials=args.trials, seed=args.seed)
    passed = 0
    for r in results:
        tail = f"  {r.detail}" if r.detail and not r.passed else ""
        print(f"{r.name} {'PASS' if r.passed else 'FAIL'}{tail}")
        passed += r.passed
    print(f"SUITE {args.suite} {passed}/{len(results)}")
    return EXIT_OK if passed == len(results) else EXIT_SUITE_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and each cmd_* function looks up its collaborators
    when it runs."""
    parser = _Parser(prog="bifactor", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="degree-exact spanning subgraph or violator")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("connect", help="connected k-regular factor under the threshold")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument(
        "--hamilton",
        action="store_true",
        help="use the minimum-degree-4 Hamilton pipeline (needs --k 2 --l 3)",
    )
    p.add_argument("--out")
    p.set_defaults(fn=cmd_connect)

    p = sub.add_parser("detect", help="find an induced star pair or print FREE")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("classify", help="sort a connected host into the free shapes")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("generate", help="seeded instance generators")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=-1, help="model degree parameter")
    p.add_argument("--p", type=float, default=0.0, help="extra-edge probability")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("threshold", help="minimum-degree thresholds")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    formula = p.add_mutually_exclusive_group()
    formula.add_argument("--m", type=int, default=None, help="target regularity; switches formula")
    formula.add_argument("--raw", action="store_true", help="evaluate without the parameter gate")
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("verify", help="named verification suites")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a violated hypothesis exits 4, and any other
    package error, ValueError or MemoryError exits 64."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HypothesisViolatedError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_HYPOTHESIS
    except (BifactorError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
