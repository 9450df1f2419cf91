"""Benchmark worker: runs one workload in this process and prints its record.

    python3 bench/harness.py --workload verify --seed 1 --seconds 15 --trace 0

The last line of standard output is a JSON object with the operations
attempted and failed, the metrics and the run context. `bench/run.py` starts
this worker in a fresh process, with BLAS and OpenMP threads pinned to 1, so
that `ru_maxrss` is the peak memory of this workload alone.

Untraced (`--trace 0`): warm up, then run passes of fixed work until
`--seconds` have elapsed (at least one pass; a pass is never cut short).
Traced (`--trace 1`): run untraced passes for half the time, then the same
passes (same seeds) again with span wrappers installed. The traced outputs
must reproduce the untraced ones exactly, and the ratio of the pass times is
the tracing overhead. In both, reported times are scaled by the reference
kernel sampled during the run (see reference.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
TIME_UNITS = ("s", "ms", "us", "ns")


def _rank(n: int, p: float) -> int:
    # Exact arithmetic: in floats, 99.9 / 100 * 10000 exceeds 9990.
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    return sorted(samples)[_rank(len(samples), p) - 1]


def beyond(n: int, p: float) -> int:
    """Number of samples above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """Highest of PERCENTILES with at least MIN_BEYOND samples beyond it."""
    ok = [p for p in PERCENTILES if beyond(n, p) >= MIN_BEYOND]
    return max(ok) if ok else None


@dataclass
class PassResult:
    wall: float
    latencies: list[float]
    failed: int
    fingerprints: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def run_pass(wl: Workload, ops: list, tracer: spans.Tracer | None = None,
             first_op: int = 0, clock=time.perf_counter) -> PassResult:
    """Run the operations of one pass, timing each, then check all outputs.

    Checks run after the timed region, so they add to neither the pass wall
    time nor the operation latencies. An operation that raises counts as
    failed.
    """
    outputs, latencies = [], []
    t_pass = clock()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op + k
        t0 = clock()
        try:
            out = wl.run(op)
        except Exception as exc:  # an operation that raises has failed
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
    wall = clock() - t_pass
    result = PassResult(wall, latencies, 0)
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
            result.fingerprints.append("raised")
        else:
            try:
                problems = wl.check(op, out)
                result.fingerprints.append(wl.fingerprint(out))
            except Exception as exc:  # unreadable output is a wrong output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
                result.fingerprints.append("unchecked")
            finally:
                wl.release(out)
        if problems:
            result.failed += 1
            result.problems += problems
    return result


def timed_passes(wl: Workload, budget: float, sampler: reference.SpeedSampler,
                 min_passes: int = 1, tracer: spans.Tracer | None = None,
                 count: int | None = None) -> list[PassResult]:
    """Run at least `min_passes` passes and go on until `budget` seconds have
    passed, or run exactly `count` passes, timing with the sampler's clock."""
    results, start, first = [], time.perf_counter(), 0
    while (len(results) < count if count is not None
           else len(results) < min_passes
           or time.perf_counter() - start < budget):
        results.append(run_pass(wl, wl.pass_inputs(len(results)), tracer,
                                first, sampler.clock))
        first += len(results[-1].latencies)
    return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qutrit_ks").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_context() -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def pull_stats(wl: Workload) -> dict:
    return {mode: {"n": len(v), "mean": statistics.fmean(v),
                   "sd": statistics.stdev(v) if len(v) > 1 else 0.0}
            for mode, v in sorted(wl.pulls.items())}


def untraced(wl: Workload, seconds: float) -> tuple[dict, dict]:
    with reference.SpeedSampler() as sampler:
        results = timed_passes(wl, seconds, sampler, wl.min_passes)
    scale = sampler.scale()
    raw = [t for r in results for t in r.latencies]
    latencies = [t * scale for t in raw]
    n = len(latencies)
    tail = tail_percentile(n)
    metrics = {
        "wall_s": (statistics.median(r.wall for r in results) * scale, "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        # With fewer than 100 operations p90 has fewer than ten samples
        # beyond it; the largest sample stands in, and the record says so.
        "op_p90_ms": ((percentile(latencies, 90.0) if n >= 100
                       else max(latencies)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "passes": len(results),
        "ops": n,
        "ops_per_pass": len(results[0].latencies),
        "scale": scale,
        "kernel_samples": len(sampler.samples),
        "raw_wall_s": statistics.median(r.wall for r in results),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_p90_ms": percentile(raw, 90.0) * 1e3,
        "op_p90_ms": "p90" if n >= 100 else f"max of {n} (p90 undefined)",
        "tail_percentile": tail,
        "tail_ms": percentile(latencies, tail) * 1e3 if tail else None,
        "master_seeds": [wl.master_seed(i) for i in range(len(results))],
        "pulls": pull_stats(wl),
        "problems": [p for r in results for p in r.problems][:20],
    }
    return metrics, {"results": results, **detail}


def _per_op(x: float, n_ops: int) -> float:
    return x / n_ops if n_ops else 0.0


class Observers:
    """Counters read from arguments and results at traced call boundaries."""

    def __init__(self):
        self.tracer: spans.Tracer | None = None
        self.settings: set[tuple[int, str]] = set()  # (operation, setting id)
        self.shots = 0
        self.pairs = 0
        self.pairs_clipped = 0
        self.reconstructions = 0
        self.projected = 0
        self.fidelities: list[float] = []
        self.assignments = 0
        self.chi4_enumerated = 0
        self.chi4_admissible = 0

    def compile_setting(self, args, kwargs, result):
        self.settings.add((self.tracer.op_id, args[0].id))

    def run_subexperiment(self, args, kwargs, table):
        self.shots += sum(table.counts.values())

    def correct_pair_ml(self, args, kwargs, est):
        self.pairs += 1
        self.pairs_clipped += est.value == 0.0

    def reconstruct(self, args, kwargs, res):
        self.reconstructions += 1
        self.projected += res.projected
        if res.fidelity_to_target is not None:
            self.fidelities.append(res.fidelity_to_target)

    def max_chi13(self, args, kwargs, report):
        self.assignments += sum(report.histogram.values())

    def max_chi4(self, args, kwargs, report):
        # The enumerator walks every 0/1 assignment of the 13 rays and
        # evaluates the admissible ones.
        self.chi4_enumerated += 2 ** len(args[0].mu_i)
        self.chi4_admissible += report.admissible_count
        self.assignments += sum(report.histogram.values())

    def table(self) -> dict:
        return {
            "pulses.compile_setting": self.compile_setting,
            "simulate.run_subexperiment": self.run_subexperiment,
            "analysis.correct_pair_ml": self.correct_pair_ml,
            "tomography.reconstruct": self.reconstruct,
            "hv.max_chi13_noncontextual": self.max_chi13,
            "hv.max_chi4_constrained": self.max_chi4,
        }


def layer_metrics(s: spans.SpanSummary, obs: Observers, wl: Workload,
                  n_ops: int, overhead: float, n_spans: int) -> dict:
    """Per-layer metrics; counts and times are per operation."""
    def calls(q):
        return _per_op(s.calls.get(q, 0), n_ops)

    def busy(q):
        return _per_op(s.busy.get(q, 0.0), n_ops)

    def own(q):
        return _per_op(s.self_time.get(q, 0.0), n_ops)

    def ratio(a, b):
        return a / b if b else 0.0

    sub = "simulate.run_subexperiment"
    sub_durations = s.durations.get(sub, [])
    pulls = pull_stats(wl)
    m = {
        "hv.max_chi13_noncontextual.busy_s": (busy("hv.max_chi13_noncontextual"), "s"),
        "hv.max_chi4_constrained.busy_s": (busy("hv.max_chi4_constrained"), "s"),
        "hv.assignments_evaluated": (_per_op(obs.assignments, n_ops), "count"),
        "hv.chi4_admissible_ratio": (ratio(obs.chi4_admissible, obs.chi4_enumerated), "ratio"),
        "model.build_model.calls": (calls("model.build_model"), "count"),
        "model.build_model.busy_s": (busy("model.build_model"), "s"),
        "model.chi13_operator.busy_s": (busy("model.chi13_operator"), "s"),
        "pulses.compile_setting.calls": (calls("pulses.compile_setting"), "count"),
        "pulses.compile_setting.busy_s": (busy("pulses.compile_setting"), "s"),
        "pulses.compile_setting.distinct_ratio": (
            ratio(len(obs.settings), s.calls.get("pulses.compile_setting", 0)),
            "ratio"),
        "pulses.verify_all_settings.busy_s": (busy("pulses.verify_all_settings"), "s"),
        "simulate.run_subexperiment.calls": (calls(sub), "count"),
        "simulate.run_subexperiment.self_s": (own(sub), "s"),
        "simulate.run_subexperiment.p50_us": (
            statistics.median(sub_durations) * 1e6 if sub_durations else 0.0, "us"),
        "simulate.derive_rng.calls": (calls("simulate.derive_rng"), "count"),
        "simulate.derive_rng.busy_s": (busy("simulate.derive_rng"), "s"),
        "simulate.shots_sampled": (_per_op(obs.shots, n_ops), "count"),
        "simulate.ns_per_shot": (
            ratio(s.busy.get(sub, 0.0) * 1e9, obs.shots), "ns"),
        "simulate.counts_to_csv.busy_s": (busy("simulate.counts_to_csv"), "s"),
        "analysis.estimates_from_counts.busy_s": (busy("analysis.estimates_from_counts"), "s"),
        "analysis.assemble_chi13.busy_s": (busy("analysis.assemble_chi13"), "s"),
        "analysis.correct_pair_ml.calls": (calls("analysis.correct_pair_ml"), "count"),
        "analysis.pair_clipped_ratio": (ratio(obs.pairs_clipped, obs.pairs), "ratio"),
    }
    for mode in ("ideal", "flip", "photon-count"):
        stats = pulls.get(mode, {"mean": 0.0, "sd": 0.0})
        m[f"analysis.chi13_pull_mean.{mode}"] = (stats["mean"], "sigma")
        m[f"analysis.chi13_pull_sd.{mode}"] = (stats["sd"], "sigma")
    m.update({
        "tomography.simulate_tomography.busy_s": (busy("tomography.simulate_tomography"), "s"),
        "tomography.reconstruct.busy_s": (busy("tomography.reconstruct"), "s"),
        "tomography.response_matrix.calls": (calls("tomography.response_matrix"), "count"),
        "tomography.projected_ratio": (ratio(obs.projected, obs.reconstructions), "ratio"),
        "tomography.fidelity_min": (min(obs.fidelities, default=0.0), "ratio"),
        "linalg.calls": (_per_op(s.module_calls.get("linalg", 0), n_ops), "count"),
        "linalg.busy_s": (_per_op(s.module_busy.get("linalg", 0.0), n_ops), "s"),
        "linalg.hermitian_eig.calls": (calls("linalg.hermitian_eig"), "count"),
        "linalg.validate_density_matrix.calls": (calls("linalg.validate_density_matrix"), "count"),
        "cli.run_simulation.self_s": (own("cli.run_simulation"), "s"),
        "cli.cmd_simulate.self_s": (own("cli.cmd_simulate"), "s"),
        "cli.bytes_written": (_per_op(wl.bytes_written, n_ops), "bytes"),
        "trace.span_count": (_per_op(n_spans, n_ops), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


def traced(wl: Workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    with reference.SpeedSampler() as base_sampler:
        base = timed_passes(wl, seconds / 2.0, base_sampler)
    wl.reset_stats()
    obs = Observers()
    with reference.SpeedSampler() as sampler:
        tracer = obs.tracer = spans.Tracer(obs.table(), sampler.clock)
        with tracer.installed():
            results = timed_passes(wl, 0.0, sampler, tracer=tracer,
                                   count=len(base))
    left = spans.installed_wrappers()
    mismatched = sum(a != b for r0, r1 in zip(base, results)
                     for a, b in zip(r0.fingerprints, r1.fingerprints))
    n_ops = sum(len(r.latencies) for r in results)
    traced_wall = sum(r.wall for r in results)
    summary = spans.SpanSummary.of(tracer)
    scale = sampler.scale()
    overhead = (statistics.median(r.wall for r in results) * scale
                / (statistics.median(r.wall for r in base) * base_sampler.scale())
                - 1.0)
    metrics = layer_metrics(summary, obs, wl, n_ops, overhead, len(tracer))
    metrics = {k: (v * scale if u in TIME_UNITS else v, u)
               for k, (v, u) in metrics.items()}
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_csv(spans_path)
    shares = {mod: summary.module_self.get(mod, 0.0) / traced_wall
              for mod in spans.MODULES}
    shares["outside spans"] = 1.0 - summary.top_level / traced_wall
    detail = {
        "results": base + results,
        "passes": len(base),
        "ops": n_ops,
        "self_time_shares": shares,
        "output_mismatches": mismatched,
        "wrappers_left": left,
        "spans_file": spans_path.name,
        "scale": scale,
        "master_seeds": [wl.master_seed(i) for i in range(len(base))],
        "pulls": pull_stats(wl),
        "problems": [p for r in base + results for p in r.problems][:20],
    }
    return metrics, detail


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    wl = WORKLOADS[workload](seed, scratch)
    try:
        t0 = time.perf_counter()
        warm = run_pass(wl, wl.warmup_inputs())
        warmup_s = time.perf_counter() - t0
        once = wl.run_problems()
        wl.reset_stats()
        if trace:
            spans_path = OUT_DIR / f"spans-{workload}.csv"
            metrics, detail = traced(wl, seconds, spans_path)
        else:
            metrics, detail = untraced(wl, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    results = [warm] + detail.pop("results")
    # The once-per-run check, where a workload has one, counts as an operation.
    attempted = sum(len(r.latencies) for r in results) + (once is not None)
    failed = sum(r.failed for r in results) + bool(once)
    detail["problems"] = (warm.problems + (once or []) + detail["problems"])[:20]
    correct = (failed == 0 and not detail.get("output_mismatches")
               and not detail.get("wrappers_left"))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": int(trace), "warmup_ops": len(warm.latencies),
                   "warmup_s": warmup_s, **detail},
        "context": run_context(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
