"""Steadiness check for the benchmark in BENCHMARK.json.

    python3 bench/steady.py

Run from the repository root.  Each of SETS sets runs every workload in
BENCHMARK.json once per seed (seeds 1..SEEDS), one process at a time, with
the run length from BENCHMARK.json; the first TRACE_SEEDS seeds also get a
traced run.  For every end-to-end metric it reports the median and the
spread (distance between the first and third quartile over the median) of
each set, and fails when

- a spread exceeds the metric's bound,
- a later set's median is worse than the first set's by more than the bound,
- a run is not correct, or the output digest or an exact count of a seed
  differs between sets or between its traced and untraced run.

The summary is written to .bench_out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10
SETS = 2
TRACE_SEEDS = 2
EXACT_PREFIX = "exact "
DIGEST_PREFIX = "digest sha256 "


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["digest"] = next(l[len(DIGEST_PREFIX):] for l in lines if l.startswith(DIGEST_PREFIX))
    exact = next((l[len(EXACT_PREFIX):] for l in lines if l.startswith(EXACT_PREFIX)), "")
    result["exact"] = exact
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = range(1, SEEDS + 1)

    runs = {}  # (set, workload, seed, trace) -> result
    for s in range(SETS):
        for seed in seeds:
            for name in names:
                for trace in (0, 1) if seed <= TRACE_SEEDS else (0,):
                    r = run_once(spec, name, seed, trace)
                    runs[(s, name, seed, trace)] = r
                    print(f"set {s} {name} seed {seed} trace {trace} correct {r['correct']} "
                          f"failed {r['failed']}/{r['attempted']}", flush=True)

    failures = []
    summary = {}
    for name in names:
        summary[name] = {"digests": {}, "exact": {}, "sets": []}
        for s in range(SETS):
            row = {}
            for metric, m in metrics.items():
                values = [runs[(s, name, seed, 0)]["metrics"][metric]["value"] for seed in seeds]
                med = statistics.median(values)
                sp = spread(values)
                row[metric] = {"median": med, "spread": sp, "bound": m["bound"], "values": values}
                flag = ""
                if sp > m["bound"]:
                    flag = "  SPREAD OVER BOUND"
                    failures.append(f"{name} set {s} {metric} spread {sp:.3f} > {m['bound']}")
                elif sp > m["bound"] / 3:
                    flag = "  spread over a third of bound"
                if s > 0:
                    first = summary[name]["sets"][0][metric]["median"]
                    worse = (first - med) / first if m["better"] == "higher" else (med - first) / first
                    if worse > m["bound"]:
                        flag += "  MEDIAN WORSE THAN SET 0"
                        failures.append(f"{name} set {s} {metric} median worse by {worse:.3f}")
                print(f"{name:17} set {s} {metric:12} median {med:.6g} {m['unit']:6} spread {sp:.4f} "
                      f"bound {m['bound']}{flag}")
            summary[name]["sets"].append(row)
        for seed in seeds:
            for trace in (0, 1):
                got = [runs[(s, name, seed, trace)] for s in range(SETS) if (s, name, seed, trace) in runs]
                if not got:
                    continue
                if not all(r["correct"] for r in got):
                    failures.append(f"{name} seed {seed} trace {trace}: a run is not correct")
                if len({r["digest"] for r in got}) != 1:
                    failures.append(f"{name} seed {seed} trace {trace}: digest differs between sets")
                if trace and len({r["exact"] for r in got}) != 1:
                    failures.append(f"{name} seed {seed}: exact counts differ between sets")
                if trace:
                    summary[name]["exact"][str(seed)] = got[0]["exact"]
                    if got[0]["digest"] != summary[name]["digests"][str(seed)]:
                        failures.append(f"{name} seed {seed}: traced digest differs from untraced")
                else:
                    summary[name]["digests"][str(seed)] = got[0]["digest"]
        summary[name]["traced"] = {
            str(seed): runs[(0, name, seed, 1)]["metrics"] for seed in seeds if (0, name, seed, 1) in runs
        }

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"failures": failures, "workloads": summary}, indent=1))
    for line in failures:
        print(f"FAIL {line}")
    print("steady" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
