#!/usr/bin/env python3
"""Closed-loop benchmark of trackmpc's `compare` on the shipped scenarios.

    python3 perfbench/run.py --workload course --seed 42 --seconds 20 --trace 0

A run parses one workload's scenario through the public API and calls
trackmpc.cli.run_compare on it again and again for --seconds, each compare
after the previous one has returned, in one thread. Every closed-loop run
(scenario x variant) is one operation and is checked against the rate limit
and the recorded references. --trace 0 prints the end-to-end metrics;
--trace 1 alternates untraced and traced compares and prints the per-layer
metrics. The last line of standard output is one JSON object. The workloads
and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

# BLAS reads its thread count when numpy loads: pin it first, for this
# process and the set-up probes it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SSD = HERE / "reference" / "ssd.json"
REFERENCE_STATES = HERE / "reference" / "states.npz"

# Workload -> (scenario file, whether --seed sets disturbance.seed).
WORKLOADS = {
    "course": ("complete.cfg", False),
    "straight": ("straight.cfg", False),
    "noisy_sine": ("sine_disturbed.cfg", True),
    "step": ("step.cfg", False),
}
DEFAULT_SEED = 42  # the seed sine_disturbed.cfg ships with; references use it
VARIANTS = ("baseline", "weight_tuned", "position_sl", "velocity_sl")
SETUP_REPEATS = 15
RTOL, ATOL = 1e-9, 1e-12  # drift allowed against the references
KKT_TOL = 1e-8            # the solver's own KKT contract
KERNEL_REPS = 3             # solves in one SpeedGauge kernel pass
SAMPLE_PASSES = 50          # passes in one speed sample taken after a cold start
LOCAL_PASSES = 10           # passes on each side that set one step's scale
REFERENCE_KERNEL_S = 7e-5   # kernel pass time that defines the reference host speed
PIVOT_BINS = ((1, 1), (2, 2), (3, 4), (5, 8), (9, 16), (17, 32), (33, 64))

# The trace spans whose total time is reported as a layer metric; the
# remaining span kinds (controllers.step, simulate.harness, cli.compare)
# are reported by self time, and together the two lists cover each span once.
LEAF_LAYERS = (
    "vehicle.step_nonlinear", "linearize", "qp.build_prediction",
    "qp.horizon_weights", "qp.build_tracking_qp", "qp.solve_box_qp",
    "controllers.generate_delta_refs", "simulate.gaussian_noise",
    "simulate.build_path", "cli.write_trace", "cli.write_manifest",
)
SELF_LAYERS = ("controllers.step", "simulate.harness", "cli.compare")
PER_VARIANT = ("linearize", "qp.build_prediction", "qp.build_tracking_qp",
               "qp.solve_box_qp", "controllers.step")


class BenchError(RuntimeError):
    """The checkout lacks what the benchmark needs; no result is printed."""


class Bench:
    """One workload of one checkout, with trackmpc imported from its src/."""

    def __init__(self, root: Path, workload: str, seed: int):
        scenario_name, seeded = WORKLOADS[workload]
        self.workload = workload
        self.src = root / "src"
        self.scenario = root / "scenarios" / scenario_name
        if not (self.src / "trackmpc" / "__init__.py").is_file():
            raise BenchError(f"no trackmpc package under {self.src}")
        if not self.scenario.is_file():
            raise BenchError(f"no scenario file {self.scenario}")
        self.out = root / ".bench_out" / workload
        self.overrides = [f"output.directory={self.out}"]
        if seeded:
            self.overrides.append(f"disturbance.seed={seed}")
        # References hold for the shipped inputs only.
        self.with_reference = not seeded or seed == DEFAULT_SEED
        self.text = self.scenario.read_text()

        sys.path.insert(0, str(self.src))
        import trackmpc
        import trackmpc.cli
        import trackmpc.config

        if Path(trackmpc.__file__).resolve().parent != (self.src / "trackmpc").resolve():
            raise BenchError(f"imported trackmpc from {trackmpc.__file__}, not {self.src}")
        self.trackmpc = trackmpc
        self.cfg = trackmpc.config.apply_overrides(
            trackmpc.config.parse_config(self.text), self.overrides)
        if tuple(self.cfg.variants) != VARIANTS:
            raise BenchError(f"{self.scenario} runs {self.cfg.variants}, expected {VARIANTS}")
        self.ctrl = {v: self.cfg.controller_config(v) for v in VARIANTS}
        self.reference = None  # variant -> (SSD, states), set by the caller

    def compare(self) -> None:
        self.trackmpc.cli.run_compare(self.cfg)

    @contextmanager
    def capturing(self, results: list):
        """Keep every SimResult that run_compare's harness call returns."""
        harness = self.trackmpc.cli.run_closed_loop

        def capture(*args, **kwargs):
            res = harness(*args, **kwargs)
            results.append(res)
            return res

        with mock.patch.object(self.trackmpc.cli, "run_closed_loop", capture):
            yield results


def load_reference(workload: str) -> dict:
    with open(REFERENCE_SSD) as handle:
        ssd = json.load(handle)[workload]
    with np.load(REFERENCE_STATES) as states:
        return {v: (ssd[v], states[f"{workload}.{v}"]) for v in VARIANTS}


def close(actual, expected) -> bool:
    return bool(np.all(np.abs(np.asarray(actual) - expected) <= ATOL + RTOL * np.abs(expected)))


def check_run(bench: Bench, res) -> list:
    """Problems with one closed-loop run; an empty list means it passed."""
    problems = []
    if res.status != "ok":
        problems.append(res.status)
    ctrl = bench.ctrl[res.variant]
    cap = ctrl.rate_limit * ctrl.ts + 1e-9
    largest = float(np.max(np.abs(res.inputs), initial=0.0))
    if largest > cap:
        problems.append(f"move {largest} beyond rate cap {cap}")
    if bench.reference is not None:
        ssd, states = bench.reference[res.variant]
        if not close(res.ssd, ssd):
            problems.append(f"SSD {res.ssd!r} differs from reference {ssd!r}")
        if res.states.shape != states.shape or not close(res.states, states):
            problems.append("state trace differs from reference")
    return problems


def check_outputs(bench: Bench, results: list) -> list:
    """Per result, problems with the files the last compare wrote for it."""
    with open(bench.out / "summary.csv", newline="") as handle:
        summary = {row["model"]: float(row["ssd"]) for row in csv.DictReader(handle)}
    problems = []
    for res in results:
        mine = []
        cols = bench.trackmpc.cli.read_trace(bench.out / f"trace_{res.variant}.csv")
        states = np.column_stack([cols["x"], cols["y"], cols["psi"], cols["beta"]])
        if not (np.array_equal(states, res.states) and np.array_equal(cols["u"], res.inputs)):
            mine.append(f"trace_{res.variant}.csv does not hold the run's trace")
        if res.status == "ok" and summary.get(res.variant) != res.ssd:
            mine.append(f"summary.csv SSD of {res.variant} is not the run's SSD")
        problems.append(mine)
    return problems


def tally(bench: Bench, results: list, extra: dict | None = None) -> tuple:
    """(attempted, failed) over all runs, printing each failure to stderr."""
    extra = extra or {}
    failed = 0
    for i, res in enumerate(results):
        problems = check_run(bench, res) + extra.get(i, [])
        if problems:
            failed += 1
            print(f"FAILED {bench.workload}/{res.variant}: {'; '.join(problems)}",
                  file=sys.stderr)
    return len(results), failed


class SpeedGauge:
    """Times a fixed kernel between control steps to factor out host speed.

    On a shared host the speed of one thread drifts by 20% and more, over
    seconds to minutes, with the load of its neighbours, and a longer run
    does not average that out. So during a timed compare a short kernel of
    the same kind of work as a control step (a small dense solve, a clip and
    Python float arithmetic) runs after every plant step, outside the
    controller's timed window. Each controller step is scaled by
    REFERENCE_KERNEL_S over the median of the kernel passes around it, and
    the rest of the compare, less the passes, by the median of all of the
    compare's passes. The trackmpc code under test never runs inside the
    kernel, so a change to it moves the scaled times in full.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((20, 20))
        self.h = m @ m.T + 20.0 * np.eye(20)
        self.f = rng.standard_normal(20)
        self.passes: list = []  # seconds of each kernel pass
        self.kernel()  # the first call pays numpy's lazy set-up
        self.passes.clear()

    def kernel(self) -> None:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(KERNEL_REPS):
            x = np.linalg.solve(self.h, self.f)
            acc += float(np.clip(x, -0.1, 0.1).sum()) + sum(float(v) for v in x[:5])
        self.passes.append(time.perf_counter() - start)

    def factor(self, passes) -> float:
        """Scale from the host speed seen by these passes to the reference."""
        return REFERENCE_KERNEL_S / statistics.median(passes)

    def step_factors(self, passes):
        """Per step, the scale from the median of the passes around it."""
        return np.array([self.factor(passes[max(0, k - LOCAL_PASSES):k + LOCAL_PASSES + 1])
                         for k in range(len(passes))])

    def sample(self) -> float:
        """Scale from the host speed right now, from a block of passes."""
        first = len(self.passes)
        for _ in range(SAMPLE_PASSES):
            self.kernel()
        return self.factor(self.passes[first:])

    @contextmanager
    def between_steps(self, trackmpc):
        """Run a kernel pass after each plant step of the closed loop."""
        plant_step = trackmpc.simulate.step_nonlinear

        def step_then_kernel(*args, **kwargs):
            state = plant_step(*args, **kwargs)
            self.kernel()
            return state

        with mock.patch.object(trackmpc.simulate, "step_nonlinear", step_then_kernel):
            yield


def measure_setup(bench: Bench) -> list:
    """Scaled seconds of each cold start: import trackmpc, parse, build paths."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(bench.src),
           str(bench.scenario), *bench.overrides]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def ends_run(lap_start: float, deadline: float) -> bool:
    """True when a lap as long as the one just made would pass the deadline."""
    now = time.perf_counter()
    return 2.0 * now - lap_start > deadline


def run_untraced(bench: Bench, seconds: float) -> dict:
    setup = measure_setup(bench)
    gauge = SpeedGauge()
    results: list = []
    compares, run_factors = [], []
    with bench.capturing(results), gauge.between_steps(bench.trackmpc):
        bench.compare()  # warm-up: caches and lazy imports, not timed
        warm = len(results)
        deadline = time.perf_counter() + seconds
        while True:
            first_pass, first_run = len(gauge.passes), len(results)
            start = time.perf_counter()
            bench.compare()
            wall = time.perf_counter() - start
            passes = gauge.passes[first_pass:]
            # Controller steps are scaled step by step, the rest of the
            # compare (plant, harness, file writes) by the compare's speed.
            rest = wall - sum(passes)
            ctrl = 0.0
            for res in results[first_run:]:
                # One kernel pass follows each applied move, in variant order.
                mine = passes[:len(res.inputs)]
                del passes[:len(res.inputs)]
                factors = gauge.step_factors(mine)
                run_factors.append(factors)
                rest -= float(np.sum(res.iter_times))
                ctrl += float(np.dot(res.iter_times, factors))
            compares.append(ctrl + rest * gauge.factor(gauge.passes[first_pass:]))
            if ends_run(start, deadline):
                break
    timed = results[warm:]
    last = len(results) - len(VARIANTS)
    output_problems = dict(enumerate(check_outputs(bench, results[last:]), start=last))
    attempted, failed = tally(bench, results, output_problems)

    scaled = [(r.variant, r.iter_times * k * 1e6) for r, k in zip(timed, run_factors)]
    samples = np.concatenate([t for _, t in scaled])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "compare_s": (statistics.median(compares), "s"),
        "ctrl_us_p50": (float(np.percentile(samples, 50)), "us"),
        "ctrl_us_p90": (float(np.percentile(samples, 90)), "us"),
    }
    for v in VARIANTS:
        per = np.concatenate([t for variant, t in scaled if variant == v])
        metrics[f"ctrl_us_p50.{v}"] = (float(np.percentile(per, 50)), "us")
    kernel_us = statistics.median(gauge.passes) * 1e6
    print(f"{bench.workload}: {len(compares)} compares timed, {samples.size} controller steps "
          f"({int(samples.size * 0.1)} beyond p90), {len(setup)} cold starts; "
          f"median kernel pass {kernel_us:.2f} us, so unscaled times are about "
          f"{kernel_us / 1e6 / REFERENCE_KERNEL_S:.3f} x the scaled ones")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def analyse_spans(spans: list) -> tuple:
    """Per-compare layer times [ns] and the solves, from one compare's spans.

    Returns (times, solves): times maps a metric stem to nanoseconds, with
    a ".<variant>" entry where the layer is split by variant; solves is a
    list of (variant, lb, ub, QpSolution).
    """
    n = len(spans)
    child_ns = [0] * n
    variant_of = [None] * n
    times: dict = {}
    solves = []
    for sid, (name, parent, start, end, note) in enumerate(spans):
        if parent >= 0:  # a parent always precedes its children
            child_ns[parent] += end - start
            variant_of[sid] = variant_of[parent]
        if name == "simulate.harness":
            variant_of[sid] = note
        elif name == "qp.solve_box_qp":
            solves.append((variant_of[sid], *note))
    for sid, (name, parent, start, end, note) in enumerate(spans):
        ns = end - start
        if name in SELF_LAYERS:
            ns -= child_ns[sid]
        times[name] = times.get(name, 0) + ns
        if name in PER_VARIANT:
            key = f"{name}.{variant_of[sid]}"
            times[key] = times.get(key, 0) + ns
    return times, solves


def solve_counts(solves: list) -> dict:
    """Exact counts over one compare's solves; they repeat bit for bit."""
    pivots = np.array([sol.iterations for _, _, _, sol in solves])
    counts = {
        "qp.solves": (len(solves), "count"),
        "qp.pivots.total": (int(pivots.sum()), "count"),
        "qp.pivots.p50": (float(np.median(pivots)), "count"),
        "qp.pivots.max": (int(pivots.max()), "count"),
        "qp.one_pivot_ratio": (float(np.mean(pivots == 1)), "ratio"),
        "qp.active_bounds.mean": (float(np.mean(
            [np.count_nonzero((sol.u <= lb) | (sol.u >= ub)) for _, lb, ub, sol in solves])),
            "count"),
        "qp.kkt_residual.max": (max(sol.kkt_residual for *_, sol in solves), "rad"),
        "qp.not_converged": (sum(sol.status != "converged" for *_, sol in solves), "count"),
    }
    for v in VARIANTS:
        mine = [sol.iterations for variant, _, _, sol in solves if variant == v]
        counts[f"qp.pivots.total.{v}"] = (sum(mine), "count")
        counts[f"qp.pivots.max.{v}"] = (max(mine), "count")
        for lo, hi in PIVOT_BINS:
            label = str(lo) if lo == hi else f"{lo}-{hi}"
            counts[f"qp.pivots.hist.{v}.{label}"] = (
                sum(lo <= p <= hi for p in mine), "count")
        counts[f"qp.pivots.hist.{v}.65-up"] = (sum(p > 64 for p in mine), "count")
    return counts


def solve_problems(solves: list) -> dict:
    """Variant -> problems with its solves (KKT contract, status)."""
    problems: dict = {}
    for variant, _, _, sol in solves:
        if sol.status != "converged" or not sol.kkt_residual <= KKT_TOL:
            problems.setdefault(variant, []).append(
                f"solve {sol.status} with KKT residual {sol.kkt_residual:.3e}")
    return problems


def run_traced(bench: Bench, seconds: float) -> dict:
    from tracing import ROOT_SPAN, Tracer

    parse_config = bench.trackmpc.config.parse_config
    tracer = Tracer()
    results: list = []
    extra: dict = {}
    untraced_ns, traced_ns, parse_ns, per_compare = [], [], [], []
    counts = None
    consistent = True
    with bench.capturing(results):
        bench.compare()  # warm-up, not timed
        deadline = time.perf_counter() + seconds
        while True:
            lap = time.perf_counter()
            start = time.perf_counter_ns()
            bench.compare()
            untraced_ns.append(time.perf_counter_ns() - start)

            start = time.perf_counter_ns()
            parse_config(bench.text)
            parse_ns.append(time.perf_counter_ns() - start)

            tracer.clear()
            first = len(results)
            with tracer.installed(bench.trackmpc):
                tracer.wrap(ROOT_SPAN, bench.compare)()
            _, _, start, end, _ = tracer.spans[0]
            traced_ns.append(end - start)
            times, solves = analyse_spans(tracer.spans)
            covered = sum(times[k] for k in LEAF_LAYERS + SELF_LAYERS if k in times)
            if covered != traced_ns[-1]:
                print(f"layer times sum to {covered} ns, compare took {traced_ns[-1]} ns",
                      file=sys.stderr)
                consistent = False
            per_compare.append(times)
            bad = solve_problems(solves)
            for i, res in enumerate(results[first:], start=first):
                extra[i] = bad.get(res.variant, [])
            these = solve_counts(solves)
            these["vehicle.step_nonlinear.calls"] = (
                sum(s[0] == "vehicle.step_nonlinear" for s in tracer.spans), "count")
            these["linearize.calls"] = (sum(s[0] == "linearize" for s in tracer.spans), "count")
            these["cli.trace_bytes"] = (
                sum((bench.out / f"trace_{v}.csv").stat().st_size for v in VARIANTS), "bytes")
            if counts is not None and these != counts:
                print("exact counts differ between traced compares", file=sys.stderr)
                consistent = False
            counts = these
            if ends_run(lap, deadline):
                break
    tracer.write_jsonl(bench.out / "spans.jsonl")
    last = len(results) - len(VARIANTS)
    for i, problems in enumerate(check_outputs(bench, results[last:]), start=last):
        extra[i] = extra.get(i, []) + problems
    attempted, failed = tally(bench, results, extra)

    def mean_us(key: str) -> float:
        return sum(t.get(key, 0) for t in per_compare) / len(per_compare) / 1e3

    metrics = dict(counts)
    for layer in LEAF_LAYERS:
        metrics[f"{layer}.us"] = (mean_us(layer), "us")
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_us"] = (mean_us(layer), "us")
    for layer in PER_VARIANT:
        stem = f"{layer}.self_us" if layer in SELF_LAYERS else f"{layer}.us"
        for v in VARIANTS:
            metrics[f"{stem}.{v}"] = (mean_us(f"{layer}.{v}"), "us")
    # Each traced compare runs right after an untraced one; the median of
    # their ratios keeps the host's drift out of the overhead.
    overhead = statistics.median(t / u - 1.0 for t, u in zip(traced_ns, untraced_ns))
    metrics["config.parse_config.us"] = (statistics.fmean(parse_ns) / 1e3, "us")
    metrics["trace.compare_s"] = (statistics.fmean(traced_ns) / 1e9, "s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    print(f"{bench.workload}: {len(traced_ns)} traced and {len(untraced_ns)} untraced "
          f"compares; spans of the last traced compare in {bench.out / 'spans.jsonl'}")
    for v in VARIANTS:
        pivots = [sol.iterations for variant, _, _, sol in solves if variant == v]
        hist = {p: pivots.count(p) for p in sorted(set(pivots))}
        print(f"pivot histogram {v}: {json.dumps(hist)}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "consistent": consistent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = Bench(ROOT, args.workload, args.seed)
        if bench.with_reference:
            bench.reference = load_reference(args.workload)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run = run_traced if args.trace else run_untraced
    outcome = run(bench, args.seconds)
    result = {
        "correct": outcome["failed"] == 0 and outcome.get("consistent", True),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
