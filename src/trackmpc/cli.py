"""Batch experiment front end.

Verbs:
    run              simulate the configured variant, write its trace
    compare          run every configured variant on the same scenario
    sweep-alpha      rerun a step scenario across aggressiveness values
    validate-config  parse, validate, and echo the normalized document

Outputs are CSV files plus a JSON manifest (config echo, seed, versions)
so that any figure can be regenerated from the artifacts alone.  Exit
codes: 0 success, 1 configuration error or unwritable output, 2 run failure.
"""

import argparse
import csv
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, apply_overrides, parse_config, serialize_config
from .controllers import FIXED_MODEL_VARIANTS
from .simulate import SimResult, run_closed_loop
from .vehicle import steer_from_slip

TRACE_COLUMNS = ("t", "x", "y", "psi", "beta", "delta_f", "x_ref", "y_ref", "u")
SUMMARY_COLUMNS = ("model", "ssd", "time_per_iteration", "total_time")
SWEEP_COLUMNS = ("alpha", "rise_time", "ssd")
DEFAULT_ALPHAS = (0.7, 2.8, 11.2)


def _fmt(value: float) -> str:
    return repr(float(value))


def _open_fresh(target: Path):
    """Open target as a new file; an existing one is unlinked, never truncated in place."""
    target.unlink(missing_ok=True)
    return open(target, "x", newline="")


def _write_csv(target: Path, header, rows) -> None:
    with _open_fresh(target) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trace(target: Path, res: SimResult, params) -> None:
    """Write one closed-loop trace as CSV (deterministic bytes, no timing)."""
    states = res.states.T.tolist()
    columns = [res.t.tolist(), *states, [steer_from_slip(beta, params) for beta in states[3]],
               res.x_ref.tolist(), res.y_ref.tolist(), res.inputs.tolist()]
    cells = [[repr(value) for value in column] for column in columns]
    cells[-1] += [""] * (len(res.t) - len(res.inputs))  # no move after the last sample
    _write_csv(target, TRACE_COLUMNS, zip(*cells))


def read_trace(source: Path) -> dict:
    """Read a trace CSV back as column arrays; only the final u cell may be empty.

    Every trace write_trace writes holds at least one sample row, the run's
    first state, so a file with the header alone is rejected as truncated."""
    with open(source, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])  # an empty file has no header row
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace columns {header} in {source}")
        rows = list(reader)
    if not rows:
        raise ValueError(f"no sample rows after the header in {source}")
    cols = {name: [] for name in TRACE_COLUMNS}
    for line, row in enumerate(rows, start=2):
        cells = row[:-1] if row is rows[-1] else row  # no move after the last sample
        if len(row) != len(TRACE_COLUMNS) or "" in cells:
            raise ValueError(f"line {line} of {source} is not a full trace row: {row}")
        for name, cell in zip(TRACE_COLUMNS, row):
            if cell:
                cols[name].append(float(cell))
    return {name: np.asarray(vals) for name, vals in cols.items()}


def write_manifest(target: Path, cfg: ScenarioConfig) -> None:
    manifest = {
        "config": serialize_config(cfg),
        "seed": cfg.disturbance.seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "trackmpc": __version__,
        },
    }
    with _open_fresh(target) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _summary_line(res: SimResult) -> str:
    """One completed run; it made at least one step, since a path has 2 samples or more."""
    return (f"{res.variant}: ssd={res.ssd:.6g} m^2, "
            f"time/iter={np.mean(res.iter_times):.3e} s, total={np.sum(res.iter_times):.3f} s")


def _run_variant(cfg: ScenarioConfig, variant: str) -> SimResult:
    ctrl = cfg.controller_config(variant)
    path = cfg.build_path(ctrl.ts)
    return run_closed_loop(ctrl, path, cfg.disturbance, cfg.vehicle)


def run_compare(cfg: ScenarioConfig) -> tuple:
    """Run every configured variant; returns (ok, failed) lists of SimResult.

    ok holds the completed runs ordered by SSD ascending, and only they get
    a summary row; failed holds the rest in run order.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ok, failed = [], []
    for variant in cfg.variants:
        res = _run_variant(cfg, variant)
        write_trace(out / f"trace_{variant}.csv", res, cfg.vehicle)
        (ok if res.status == "ok" else failed).append(res)
    ok.sort(key=lambda res: res.ssd)
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS,
               [(res.variant, _fmt(res.ssd), _fmt(np.mean(res.iter_times)),
                 _fmt(np.sum(res.iter_times))) for res in ok])
    write_manifest(out / "manifest.json", cfg)
    return ok, failed


def rise_time(t: np.ndarray, y: np.ndarray, target: float) -> float:
    """First time y reaches 90% of target, linearly interpolated; NaN if never."""
    level = 0.9 * target
    above = y >= level if target >= 0 else y <= level
    hits = np.nonzero(above)[0]
    if len(hits) == 0:
        return math.nan
    k = int(hits[0])
    if k == 0:
        return float(t[0])
    frac = (level - y[k - 1]) / (y[k] - y[k - 1])
    return float(t[k - 1] + frac * (t[k] - t[k - 1]))


def sweep_alpha(cfg: ScenarioConfig, alphas) -> list:
    """Run the scenario once per alpha; returns [(alpha, rise_time, ssd)].

    Every alpha is validated like a --set override before the first run,
    so a bad one raises ConfigError and nothing is written.
    """
    scenarios = [apply_overrides(cfg, [f"controller.alpha={float(alpha)!r}"]) for alpha in alphas]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for scen in scenarios:
        res = _run_variant(scen, scen.variant)
        if res.status != "ok":
            raise RuntimeError(f"alpha={scen.alpha:g}: {res.status}")
        rt = rise_time(res.t, res.states[:, 1], cfg.amplitude)
        records.append((scen.alpha, rt, res.ssd))
    _write_csv(out / "sweep_alpha.csv", SWEEP_COLUMNS,
               [tuple(map(_fmt, record)) for record in records])
    write_manifest(out / "manifest.json", cfg)
    return records


def _load_config(args) -> ScenarioConfig:
    text = ""
    if args.config is not None:
        text = Path(args.config).read_text(encoding="utf-8")
    cfg = parse_config(text)
    overrides = list(args.set or [])
    if getattr(args, "output_dir", None):
        overrides.append(f"output.directory={args.output_dir}")
    return apply_overrides(cfg, overrides)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackmpc",
        description="Trajectory-tracking MPC experiments for a kinematic bicycle.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("config", nargs="?", default=None,
                       help="scenario document (omit for all defaults)")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config key (repeatable; wins over the file)")
        p.add_argument("--output-dir", default=None,
                       help="shorthand for --set output.directory=...")

    add_common(sub.add_parser("run", help="simulate the configured variant"))
    add_common(sub.add_parser("compare", help="run all configured variants"))
    sweep = sub.add_parser("sweep-alpha", help="rerun a step scenario across alphas")
    add_common(sweep)
    sweep.add_argument("--alphas", default=",".join(str(a) for a in DEFAULT_ALPHAS),
                       help="comma-separated alpha values")
    add_common(sub.add_parser("validate-config", help="parse and echo the config"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    if args.verb == "validate-config":
        print(serialize_config(cfg), end="")
        return 0

    if args.verb == "sweep-alpha":
        if cfg.variant not in FIXED_MODEL_VARIANTS:
            print("error: sweep-alpha expects variant baseline or weight_tuned",
                  file=sys.stderr)
            return 1
        if cfg.kind != "step":
            print("error: sweep-alpha expects a step scenario", file=sys.stderr)
            return 1
        try:
            alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
        except ValueError:
            print(f"error: bad --alphas value {args.alphas!r}", file=sys.stderr)
            return 1
        if not alphas:
            print("error: --alphas lists no values", file=sys.stderr)
            return 1

    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1

    # an output that cannot be written ends the verb there
    try:
        if args.verb == "run":
            res = _run_variant(cfg, cfg.variant)
            write_trace(out / f"trace_{cfg.variant}.csv", res, cfg.vehicle)
            write_manifest(out / "manifest.json", cfg)
            if res.status != "ok":
                print(f"{cfg.variant}: {res.status}", file=sys.stderr)
                return 2
            print(_summary_line(res))
            return 0

        if args.verb == "compare":
            ok, failed = run_compare(cfg)
            for res in ok:
                print(_summary_line(res))
            for res in failed:
                print(f"{res.variant}: {res.status}", file=sys.stderr)
            return 2 if failed else 0

        # sweep-alpha, the one verb left
        try:
            records = sweep_alpha(cfg, alphas)
        except ConfigError as exc:
            print(f"error: --alphas: {exc.message}", file=sys.stderr)
            return 1
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for alpha, rt, ssd in records:
            print(f"alpha={alpha:g}: rise_time={rt:.4f} s, ssd={ssd:.6g} m^2")
        return 0
    except OSError as exc:
        print(f"error: cannot write {exc.filename or out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
