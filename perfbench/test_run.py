"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest perfbench -q

Each run measures a single compare after its warm-up, so the whole file
takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int, seed: int = 42):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def last_json(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    result = last_json(bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 8
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


VARIANTS = ("baseline", "weight_tuned", "position_sl", "velocity_sl")
LAYER_TOTALS = (
    "vehicle.step_nonlinear.us", "vehicle.step_nonlinear.calls", "linearize.calls",
    "qp.horizon_weights.us", "qp.solves", "qp.pivots.p50", "qp.one_pivot_ratio",
    "qp.active_bounds.mean", "qp.kkt_residual.max", "qp.not_converged",
    "controllers.generate_delta_refs.us", "simulate.gaussian_noise.us",
    "simulate.harness.self_us", "simulate.build_path.us", "config.parse_config.us",
    "cli.write_trace.us", "cli.trace_bytes", "cli.write_manifest.us", "trace.overhead_frac",
)
LAYERS_PER_VARIANT = (
    "linearize.us", "qp.build_prediction.us", "qp.build_tracking_qp.us", "qp.solve_box_qp.us",
    "qp.pivots.total", "qp.pivots.max", "controllers.step.self_us",
)


def test_issue_metrics_are_declared():
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert {"setup_s", "compare_s", "ctrl_us_p50", "ctrl_us_p90"} <= names
    assert {f"ctrl_us_p50.{v}" for v in VARIANTS} <= names
    layers = {m["name"] for m in SPEC["per_layer"]}
    assert set(LAYER_TOTALS) <= layers
    for stem in LAYERS_PER_VARIANT:
        assert {stem, *(f"{stem}.{v}" for v in VARIANTS)} <= layers


def _copy_checkout(tmp_path: Path, with_program: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        for part in ("src", "scenarios"):
            shutil.copytree(ROOT / part, tmp_path / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_gate_trips_on_a_perturbed_ssd_reference(tmp_path):
    root = _copy_checkout(tmp_path, with_program=True)
    ref_path = root / "perfbench" / "reference" / "ssd.json"
    ref = json.loads(ref_path.read_text())
    ref["step"]["baseline"] *= 1.0 + 1e-8
    ref_path.write_text(json.dumps(ref))
    result = last_json(bench(root, "step", 0))
    assert result["correct"] is False
    # Only the baseline runs miss the reference: one per compare made.
    assert 0 < result["failed"] == result["attempted"] // 4


def test_unseen_seed_skips_only_the_reference_check():
    result = last_json(bench(ROOT, "noisy_sine", 0, seed=7))
    assert result["correct"] is True and result["failed"] == 0


def test_refuses_a_checkout_without_the_program(tmp_path):
    root = _copy_checkout(tmp_path, with_program=False)
    done = bench(root, "course", 0)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
