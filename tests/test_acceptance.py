"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL verdict line (run with `pytest -s` to
see them all); the assertions carry the same condition. Oracles are
independent of the implementation under test: finite differences of the
nonlinear plant, exhaustive grid search, forward rollouts, and byte-level
file comparison.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qp_reference import box_qp
from test_linearize import state_matrix
from trackmpc import (
    DisturbanceSpec,
    VARIANTS,
    VehicleParams,
    VehicleState,
    build_prediction,
    linearize_initial,
    linearize_position,
    linearize_velocity,
    parse_config,
    run_closed_loop,
    solve_box_qp,
    ssd_from_traces,
    step_nonlinear,
)
from trackmpc.cli import main, sweep_alpha

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PARAMS = VehicleParams()


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _scenario(name: str):
    return parse_config((SCENARIO_DIR / name).read_text())


def _run(cfg, variant: str):
    ctrl = cfg.controller_config(variant)
    path = cfg.build_path(ctrl.ts)
    return ctrl, run_closed_loop(ctrl, path, cfg.disturbance, cfg.vehicle)


def test_criterion_1_linearizations_match_finite_differences():
    rng = np.random.default_rng(101)
    h = 1e-6
    worst = 0.0
    tic = time.perf_counter()
    for _ in range(100):
        psi = float(rng.uniform(-1.0, 1.0))
        beta = float(rng.uniform(-0.4, 0.4))
        ts = float(rng.uniform(0.02, 0.3))
        op = VehicleState(psi=psi, beta=beta)
        state = VehicleState(x=float(rng.normal()), y=float(rng.normal()), psi=psi, beta=beta)

        plus = step_nonlinear(state, h, ts, PARAMS)
        minus = step_nonlinear(state, -h, ts, PARAMS)
        fd_b = np.array([plus.x - minus.x, plus.y - minus.y, plus.psi - minus.psi]) / (2.0 * h)
        for model in (linearize_position(op, PARAMS, ts), linearize_velocity(op, PARAMS, ts)):
            worst = max(worst, float(np.max(np.abs(model.b - fd_b)) / np.max(np.abs(fd_b))))

        plus = step_nonlinear(replace(state, psi=psi + h), 0.0, ts, PARAMS)
        minus = step_nonlinear(replace(state, psi=psi - h), 0.0, ts, PARAMS)
        fd_a3 = np.array([plus.x - minus.x, plus.y - minus.y, plus.psi - minus.psi]) / (2.0 * h)
        col = state_matrix(linearize_velocity(op, PARAMS, ts))[:, 2]
        worst = max(worst, float(np.max(np.abs(col - fd_a3)) / np.max(np.abs(fd_a3))))
    elapsed = time.perf_counter() - tic

    ok = worst <= 1e-6 and elapsed < 1.0
    _report(1, ok, f"worst relative Jacobian error {worst:.3e} over 100 operating points "
                   f"in {elapsed:.2f} s (caps 1e-6, 1 s)")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_solver_matches_independent_oracles():
    rng = np.random.default_rng(202)
    tic = time.perf_counter()

    worst_grid = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        m = rng.normal(size=(n, n))
        hmat = m.T @ m + 0.3 * np.eye(n)
        f = rng.normal(size=n)
        lb = rng.uniform(-0.4, -0.05, size=n)
        ub = rng.uniform(0.05, 0.4, size=n)
        sol = solve_box_qp(box_qp(h=hmat, f=f, lb=lb, ub=ub))
        res = 1e-3
        axes = [np.arange(lb[i], ub[i] + res / 2, res) for i in range(n)]
        if n == 1:
            pts = axes[0][None, :]
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.vstack([g0.ravel(), g1.ravel()])
        cost = 0.5 * np.sum(pts * (hmat @ pts), axis=0) + f @ pts
        grid = pts[:, int(np.argmin(cost))]
        worst_grid = max(worst_grid, float(np.max(np.abs(sol.u - grid))))

    worst_kkt = 0.0
    certificate_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 21))
        m = rng.normal(size=(n, n))
        hmat = m.T @ m + 0.05 * np.eye(n)
        f = rng.normal(size=n)
        lb = rng.uniform(-1.0, -0.01, size=n)
        ub = rng.uniform(0.01, 1.0, size=n)
        sol = solve_box_qp(box_qp(h=hmat, f=f, lb=lb, ub=ub))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
        w = rng.uniform(lb, ub, size=(1000, n))
        cost_star = 0.5 * sol.u @ hmat @ sol.u + f @ sol.u
        costs = 0.5 * np.sum(w * (w @ hmat.T), axis=1) + w @ f
        slack = 1e-8 * np.sum(np.abs(w - sol.u), axis=1)
        certificate_ok &= bool(np.all(cost_star <= costs + slack + 1e-12))
    elapsed = time.perf_counter() - tic

    ok = worst_grid <= 2e-3 and worst_kkt <= 1e-8 and certificate_ok and elapsed < 10.0
    _report(2, ok, f"grid gap {worst_grid:.2e} (cap 2e-3), KKT {worst_kkt:.2e} (cap 1e-8), "
                   f"certificate {'held' if certificate_ok else 'VIOLATED'} on 50x1000 points, "
                   f"{elapsed:.2f} s (cap 10 s)")
    assert worst_grid <= 2e-3
    assert worst_kkt <= 1e-8
    assert certificate_ok
    assert elapsed < 10.0


def test_criterion_3_rate_limit_holds_everywhere():
    worst = 0.0
    runs = 0
    for name in sorted(p.name for p in SCENARIO_DIR.glob("*.cfg")):
        cfg = _scenario(name)
        for variant in VARIANTS:
            ctrl, result = _run(cfg, variant)
            assert result.status == "ok", f"{name}/{variant}: {result.status}"
            rates = np.abs(np.diff(result.states[:, 3])) / ctrl.ts
            worst = max(worst, float(np.max(rates)))
            runs += 1
    ok = worst <= 0.5 + 1e-9
    _report(3, ok, f"max slip rate {worst:.12f} rad/s over {runs} runs "
                   f"(all scenarios x all controllers, cap 0.5 + 1e-9)")
    assert runs == 16
    assert worst <= 0.5 + 1e-9


def test_criterion_4_aggressiveness_shortens_rise_time(tmp_path):
    cfg = _scenario("step.cfg")
    cfg = replace(cfg, out_dir=str(tmp_path))
    records = sweep_alpha(cfg, (0.7, 2.8, 11.2))
    rises = [rt for _, rt, _ in records]
    ok = all(np.isfinite(rises)) and rises[0] > rises[1] > rises[2]
    _report(4, ok, "rise times "
            + " > ".join(f"{rt:.4f}" for rt in rises)
            + " s across alpha 0.7 / 2.8 / 11.2 (strictly decreasing)")
    assert rises[0] > rises[1] > rises[2]


def test_criterion_5_retuned_controller_on_noisy_sine():
    cfg = _scenario("sine_disturbed.cfg")
    base_ctrl, base = _run(cfg, "baseline")
    tuned_ctrl, tuned = _run(cfg, "weight_tuned")
    assert base.status == "ok" and tuned.status == "ok"
    # The SSD is a sum over each run's own samples, and the 0.05 s controller
    # takes four times as many as the 0.2 s one. The sine reference advances
    # along x at exactly the vehicle speed while a tilted vehicle advances at
    # v*cos(heading), so every sample carries an x lag that no steering can
    # remove, and a full-trace sum collects that floor once per sample. The
    # two runs are therefore compared on the instants both of them sample:
    # every stride-th row of the retuned trace, checked to line up exactly
    # with the baseline rows, each of which is a shared instant.
    ratio = base_ctrl.ts / tuned_ctrl.ts
    stride = round(ratio)
    assert stride >= 1 and abs(ratio - stride) <= 1e-12, (
        f"sample times {base_ctrl.ts} and {tuned_ctrl.ts} s do not nest: ratio {ratio}")
    shared = slice(None, None, stride)
    assert np.array_equal(tuned.t[shared], base.t)
    assert np.array_equal(tuned.x_ref[shared], base.x_ref)
    assert np.array_equal(tuned.y_ref[shared], base.y_ref)
    tuned_shared = ssd_from_traces(tuned.states[shared], tuned.x_ref[shared],
                                   tuned.y_ref[shared])
    ok = tuned_shared < base.ssd
    _report(5, ok, f"SSD on the {len(base.t)} shared instants: weight_tuned "
                   f"{tuned_shared:.4f} vs baseline {base.ssd:.4f} m^2 "
                   f"(required: weight_tuned strictly smaller); full traces: "
                   f"weight_tuned {tuned.ssd:.4f} m^2 over {len(tuned.t)} samples, "
                   f"baseline {base.ssd:.4f} m^2 over {len(base.t)} samples")
    assert tuned_shared < base.ssd, (
        f"weight_tuned SSD {tuned_shared:.4f} >= baseline {base.ssd:.4f} m^2 on the "
        f"{len(base.t)} shared instants (full traces: weight_tuned {tuned.ssd:.4f} m^2 "
        f"over {len(tuned.t)} samples, baseline {base.ssd:.4f} m^2 over {len(base.t)})")


def test_criterion_6_velocity_controller_wins_the_combined_course():
    cfg = _scenario("complete.cfg")
    results = {}
    timings = {}
    for variant in ("baseline", "weight_tuned", "velocity_sl", "position_sl"):
        _, res = _run(cfg, variant)
        assert res.status == "ok", f"{variant}: {res.status}"
        results[variant] = res.ssd
        timings[variant] = float(np.mean(res.iter_times))
    ok = (results["velocity_sl"] < results["weight_tuned"]
          and results["velocity_sl"] <= 0.1 * results["baseline"])
    detail = ", ".join(f"{v}={results[v]:.4f}" for v in
                       ("velocity_sl", "weight_tuned", "baseline", "position_sl"))
    timing_note = ", ".join(f"{v} {timings[v] * 1e3:.2f} ms/iter" for v in results)
    _report(6, ok, f"SSD {detail} m^2; timings (reported only): {timing_note}")
    assert results["velocity_sl"] < results["weight_tuned"]
    assert results["velocity_sl"] <= 0.1 * results["baseline"]


def test_criterion_7_straight_line_is_a_fixed_point():
    cfg = _scenario("straight.cfg")
    assert cfg.duration == 30.0
    worst = 0.0
    for variant in VARIANTS:
        _, res = _run(cfg, variant)
        assert res.status == "ok", f"{variant}: {res.status}"
        worst = max(worst, res.ssd)
    ok = worst <= 1e-6
    _report(7, ok, f"worst SSD {worst:.3e} m^2 over 30 s, all controllers (cap 1e-6)")
    assert worst <= 1e-6


def test_criterion_8_compare_is_byte_reproducible(tmp_path):
    out = tmp_path / "out"
    scenario = str(SCENARIO_DIR / "sine_disturbed.cfg")
    assert main(["compare", scenario, "--output-dir", str(out)]) == 0
    watched = sorted(p.name for p in out.iterdir()
                     if p.name.startswith("trace_") or p.name == "manifest.json")
    first = {name: (out / name).read_bytes() for name in watched}
    assert main(["compare", scenario, "--output-dir", str(out)]) == 0
    stable = [name for name in watched if (out / name).read_bytes() == first[name]]
    ok = stable == watched and len(watched) == 5
    _report(8, ok, f"{len(stable)}/{len(watched)} artifacts byte-identical across two runs "
                   f"({', '.join(watched)}); summary timing columns excluded by design")
    assert stable == watched
    # the timing-free summary content is reproducible too
    rows = [line.split(",")[:2] for line in (out / "summary.csv").read_text().splitlines()]
    assert rows[0] == ["model", "ssd"]
    assert len(rows) == 5


def test_criterion_9_condensed_prediction_equals_rollout():
    rng = np.random.default_rng(909)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, n + 1))
        ts = float(rng.uniform(0.02, 0.3))
        op = VehicleState(psi=float(rng.uniform(-1, 1)), beta=float(rng.uniform(-0.4, 0.4)))
        model = (
            linearize_velocity(op, PARAMS, ts)
            if case % 3 == 0
            else linearize_position(op, PARAMS, ts)
            if case % 3 == 1
            else linearize_initial(PARAMS, ts)
        )
        pred = build_prediction(model, n, m)
        x0 = rng.normal(size=3)
        moves = rng.normal(scale=0.1, size=m)
        k_vec = np.asarray(getattr(model, "k", np.zeros(3)), dtype=float)
        x = x0.copy()
        rolled = []
        for stage in range(n):
            x = state_matrix(model) @ x + model.b * moves[min(stage, m - 1)] + k_vec
            rolled.append(x.copy())
        stacked = pred.sx @ x0 + pred.su @ moves + pred.sk
        worst = max(worst, float(np.max(np.abs(stacked - np.concatenate(rolled)))))
    ok = worst <= 1e-12
    _report(9, ok, f"worst condensing mismatch {worst:.3e} over 100 random horizons (cap 1e-12)")
    assert worst <= 1e-12
