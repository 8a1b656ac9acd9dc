"""Benchmark for bifactor: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src.  The
seed makes the inputs; the program only ever sees the generated hosts.
After set-up (repeated SETUP_REPS times; the median counts) and a warm-up,
the run repeats whole passes over the workload's operations until
``--seconds`` have gone by and at least the workload's ``min_passes`` are
done.  Every operation of the first pass is checked independently, outside
the timed region; later passes must reproduce its output bytes exactly.

With ``--trace 0`` the last line reports the end-to-end metrics, their
times scaled by the yardstick described below.  With
``--trace 1`` untraced and traced passes alternate; the last line reports
the per-layer metrics of the traced passes and the tracing overhead, and
the spans are written to .bench_out/spans-<workload>.tsv.

An operation fails if it raises, returns the wrong exit code, or gives
output that fails its check.  ``correct`` is false when some operation
gave a wrong answer (not merely raised) or a self-check of the run broke.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it

# On a shared or frequency-scaled machine the speed of the CPU itself drifts
# by tens of percent within seconds.  A fixed pure-Python yardstick is timed
# every YARDSTICK_EVERY_S between operations, and reported times are scaled
# to a machine on which it takes YARDSTICK_NOMINAL_S: each operation, and
# each lap of set-up, by the mean of the yardsticks before and after it.
# Unscaled times are printed as well.
YARDSTICK_EVERY_S = 0.1
YARDSTICK_NOMINAL_S = 0.001


def yardstick():
    """Fastest of three timings of fixed dict, tuple and integer work."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        d = {}
        s = 0
        for i in range(4000):
            d[(i, i ^ 5)] = i
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class Stopwatch:
    """Set-up time summed over laps, raw and yardstick-scaled; the yardstick
    runs between laps, outside the time."""

    def __init__(self):
        self.raw = self.scaled = 0.0
        self._stick = yardstick()
        self._t = time.perf_counter()

    def lap(self):
        d = time.perf_counter() - self._t
        stick = yardstick()
        self.raw += d
        self.scaled += d * 2 * YARDSTICK_NOMINAL_S / (self._stick + stick)
        self._stick = stick
        self._t = time.perf_counter()


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.durations: list[float] = []  # every operation, in order
        self.scaled: list[float] = []  # the same, scaled by the yardstick
        self.ok: list[bool] = []
        self.raised = 0
        self.wrong = 0
        self.digest = hashlib.sha256()
        self.spans = (0, 0)


def run_pass(wl, ops, first, tracer, problems):
    """One pass over ``ops``.  ``first`` holds the first pass's output
    hashes and verdicts; it is filled when empty."""
    traced = tracer is not None
    p = Pass(traced)
    first_span = len(tracer.spans) if traced else 0
    clock = time.perf_counter
    fill = not first
    last_stick, last_at, pending = yardstick(), clock(), []
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            raw = tracer.call(i, "bench.op", wl.run, op) if traced else wl.run(op)
        except Exception as exc:  # the operation failed; recorded below
            raw = exc
        p.durations.append(clock() - t0)
        pending.append(p.durations[-1])
        failed = isinstance(raw, Exception)
        text = f"raised {type(raw).__name__}\n" if failed else wl.render(op, raw)
        blob = f"{op.label}\n{text}".encode()
        p.digest.update(blob)
        h = hashlib.sha256(blob).digest()
        if fill:
            problem = None if failed else wl.check(op, raw, text)
            first.append((h, failed, problem))
            if problem:
                problems.append(f"{op.label}: {problem}")
        ref_hash, ref_failed, ref_problem = first[i]
        if h != ref_hash:
            problems.append(f"{op.label}: output differs from the first pass")
            p.wrong += 1
        elif ref_failed:
            p.raised += 1
        elif ref_problem:
            p.wrong += 1
        p.ok.append(h == ref_hash and not ref_failed and not ref_problem)
        if clock() - last_at >= YARDSTICK_EVERY_S or i == len(ops) - 1:
            stick = yardstick()
            scale = 2 * YARDSTICK_NOMINAL_S / (last_stick + stick)
            p.scaled.extend(d * scale for d in pending)
            last_stick, last_at, pending = stick, clock(), []
    if traced:
        p.spans = (first_span, len(tracer.spans))
    return p


def timings(passes, count, attr, q):
    """ops_per_s, op_s_p50 and op_s_tail from the per-operation times in
    ``attr`` ('scaled' or 'durations').

    ops_per_s is the median over segments: passes are cut into ``count``
    equal segments each (1 keeps whole passes; more suits passes whose
    operations are shuffled alike).  op_s_p50 and op_s_tail pool the
    correct operations of every pass; the tail is their ``q`` percentile,
    by nearest rank.  Also returns the samples beyond the tail and pooled."""
    rates, pooled = [], []
    for p in passes:
        times = getattr(p, attr)
        size = len(times) // count
        for i in range(count):
            hi = len(times) if i == count - 1 else (i + 1) * size
            good = [t for t, ok in zip(times[i * size : hi], p.ok[i * size : hi]) if ok]
            rates.append(len(good) / sum(times[i * size : hi]))
            pooled += good
    pooled.sort()
    rank = max(1, math.ceil(q * len(pooled)))
    return (statistics.median(rates), statistics.median(pooled), pooled[rank - 1]), (len(pooled) - rank, len(pooled))


def load_baseline():
    path = BENCH / "baseline.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


def main(argv=None):
    stick = yardstick()
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bifactor" / "__init__.py").is_file():
        sys.stderr.write(f"error: no bifactor sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing  # noqa: E402  (imports bifactor)
    import workloads  # noqa: E402

    import_s = time.perf_counter() - t_start
    import_scaled = import_s * 2 * YARDSTICK_NOMINAL_S / (stick + yardstick())
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    cwd = os.getcwd()
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        os.chdir(work)
        return measure(args, wl, tracer, import_s, import_scaled, work)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def measure(args, wl, tracer, import_s, import_scaled, work):
    import tracing  # noqa: E402  (already imported by main)

    # -- set-up: generate inputs and write graph files, SETUP_REPS times ------
    # The workload calls ``lap`` between hosts, so set-up time is scaled in
    # short pieces.  The traced run reports no setup_s and skips the laps,
    # which would otherwise land inside its generator spans.
    if tracer:
        span = lambda name, fn, *a: tracer.call(-1, name, fn, *a)  # noqa: E731
    else:
        span = lambda name, fn, *a: fn(*a)  # noqa: E731
    setup_times, setup_scaled, setup_layers = [], [], []
    ops = None
    for rep in range(SETUP_REPS):
        directory = work / f"setup{rep}"
        directory.mkdir()
        ops = None  # drop the previous inputs before building new ones
        span_start = len(tracer.spans) if tracer else 0
        watch = Stopwatch()
        ops = wl.setup(args.seed, str(directory), span, (lambda: None) if tracer else watch.lap)
        watch.lap()
        setup_times.append(watch.raw)
        setup_scaled.append(watch.scaled)
        if tracer:
            spent = {"generators.generate": 0.0, "generators.enumerate_bipartite_block": 0.0}
            for _, _, name, s0, s1, _ in tracer.spans[span_start:]:
                spent[name] += s1 - s0
            setup_layers.append(spent)
    os.chdir(directory)
    setup_s = import_scaled + statistics.median(setup_scaled)
    setup_raw = import_s + statistics.median(setup_times)
    per_pass = len(ops)

    # -- warm-up, untimed and unchecked ---------------------------------------
    for op in ops[: wl.warmup]:
        with contextlib.suppress(Exception):  # failures count only when timed
            wl.render(op, wl.run(op))
    gc.collect()
    gc.freeze()

    # -- timed passes ----------------------------------------------------------
    first: list = []
    problems: list[str] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(wl, ops, first, tracer if traced else None, problems))
        finally:
            if traced:
                tracer.uninstall()
        gc.collect()
        done = time.perf_counter() - start >= args.seconds and len(passes) >= wl.min_passes
        if done and (not tracer or len(passes) % 2 == 0):
            break

    # -- results ----------------------------------------------------------------
    attempted = sum(len(p.durations) for p in passes)
    raised = sum(p.raised for p in passes)
    wrong = sum(p.wrong for p in passes)
    failed = raised + wrong
    digests = {p.digest.hexdigest() for p in passes}
    digest = passes[0].digest.hexdigest()
    correct = wrong == 0 and len(digests) == 1

    print(f"workload {wl.name} seed {args.seed} trace {args.trace} passes {len(passes)} "
          f"ops_per_pass {per_pass} nproc {os.cpu_count()} loop closed clients 1")
    print(f"digest sha256 {digest}")
    recorded = load_baseline().get("workloads", {}).get(wl.name, {}).get("digests", {}).get(str(args.seed))
    if recorded:
        print(f"digest {'matches' if recorded == digest else 'DIFFERS from'} bench/baseline.json for seed {args.seed}")
    print(f"fail_ratio {failed / attempted:.6f} (raised {raised}, wrong {wrong}, attempted {attempted})")
    for line in problems[:10]:
        print(f"problem {line}")

    untraced = [p for p in passes if not p.traced]
    if not tracer:
        (rate, p50, tail), (beyond, pooled) = timings(untraced, wl.segments, "scaled", wl.tail_q)
        metrics = {
            "ops_per_s": (rate, "1/s"),
            "op_s_p50": (p50, "s"),
            "op_s_tail": (tail, "s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw, _ = timings(untraced, wl.segments, "durations", wl.tail_q)
        print(f"op_s_tail percentile {100 * wl.tail_q:g} of {pooled} correct operations from "
              f"{len(untraced)} passes, {beyond} beyond it")
        if beyond < TAIL_BEYOND:
            print(f"problem op_s_tail has fewer than {TAIL_BEYOND} samples beyond it")
        print("unscaled ops_per_s {:.6g} op_s_p50 {:.6g} op_s_tail {:.6g} setup_s {:.6g}".format(*raw, setup_raw))
    else:
        traced_passes = [p for p in passes if p.traced]
        per = [tracing.pass_metrics(tracer.spans, *p.spans, sum(p.durations)) for p in traced_passes]
        for name in tracing.EXACT:
            if len({m[name] for m in per}) != 1:
                correct = False
                print(f"problem exact count {name} differs between traced passes")
        layer = tracing.median_metrics(per)
        layer["generators.generate_s"] = statistics.median(s["generators.generate"] for s in setup_layers)
        layer["generators.enumerate_s"] = statistics.median(
            s["generators.enumerate_bipartite_block"] for s in setup_layers
        )
        layer["trace.overhead_ratio"] = (
            sum(sum(p.scaled) for p in traced_passes) / sum(sum(p.scaled) for p in untraced) - 1
        )
        top, share = tracing.dominant_layer(layer)
        print(f"dominant layer {top} ({100 * share:.1f}% of layer self time)")
        print("exact " + " ".join(f"{name}={per[0][name]}" for name in tracing.EXACT))
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"spans-{wl.name}.tsv")
        metrics = {name: (layer[name], unit) for name, unit in tracing.PER_LAYER.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
