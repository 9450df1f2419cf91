"""qutrit-ks benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Workloads: verify, roster-1e6, calibration-sweep (see bench/README.md).
With --trace 0 the result holds the end-to-end metrics: setup_s from fresh
set-up processes, the rest from one worker process that runs the workload.
With --trace 1 it holds the per-layer metrics of a traced run.

Standard output: a readable summary, a `# record` line with the run context
and sample counts, and, as the last line, the JSON result
{"correct", "attempted", "failed", "metrics"}. BLAS and OpenMP threads are
pinned to 1 in every process this launcher starts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEADLINE_S = 175.0  # the whole run must end within 180 s
SETUP_REPEATS = 7  # fresh processes per run; the first, discarded, fills caches
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("verify", "roster-1e6", "calibration-sweep")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def measure_setup(env: dict, deadline: float) -> list[tuple[float, float]]:
    """(raw, scaled) set-up seconds from fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py")],
                             env=env, capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()}")
        raw, scaled = out.stdout.split()[-2:]
        samples.append((float(raw), float(scaled)))
    return samples[1:]


def run_worker(args, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    if out.returncode != 0 or not out.stdout.strip():
        raise BenchError(f"worker exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared_metrics(trace: int) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def summary_lines(record: dict, metrics: dict) -> list[str]:
    d = record["detail"]
    lines = [f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}"
             f"  passes {d['passes']}  ops {d['ops']}"
             f"  attempted {record['attempted']}  failed {record['failed']}"]
    notes = {
        "setup_s": f"median of {d.get('setup_samples', 0)} fresh processes",
        "wall_s": f"median of {d['passes']} passes",
        "op_p50_ms": f"median of {d['ops']} ops",
        "op_p90_ms": f"{d.get('op_p90_ms', '')} of {d['ops']} ops",
        "peak_rss_mb": "ru_maxrss of the worker process",
    }
    for name, m in metrics.items():
        lines.append(f"  {name:<42} {m['value']:>14.6g} {m['unit']:<6} "
                     f"{notes.get(name, '')}")
    for problem in d.get("problems", []):
        lines.append(f"  problem: {problem}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "qutrit_ks" / "__init__.py").is_file():
        sys.stderr.write(f"no qutrit_ks sources under {ROOT / 'src'}\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    try:
        setup = [] if args.trace else measure_setup(env, deadline)
        record = run_worker(args, env, deadline)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    metrics = {}
    if not args.trace:
        scaled = [s for _, s in setup]
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        record["detail"]["setup_samples"] = len(setup)
        record["detail"]["raw_setup_s"] = statistics.median(r for r, _ in setup)
        record["detail"]["setup_s_all"] = scaled
    metrics.update(record["metrics"])
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        sys.stderr.write("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(declared) ^ set(metrics))}\n")
        return 1
    if declared is not None:
        metrics = {name: metrics[name] for name in declared}

    for line in summary_lines(record, metrics):
        print(line)
    print("# record " + json.dumps({"detail": record["detail"],
                                    "context": record["context"]}))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
