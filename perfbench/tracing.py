"""In-memory spans recorded around trackmpc's public functions.

The wrappers are installed from outside the program, in the namespace each
function is looked up from at call time, and removed again on exit. Each
span holds its name, its parent span, its start and end in nanoseconds and
an optional note taken from the call; nothing is written until the caller
asks for it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from unittest import mock

# Span name -> (module, attribute or attributes it is looked up as there).
TRACED = {
    "simulate.harness": ("cli", ("run_closed_loop",)),
    "simulate.build_path": ("config", ("ScenarioConfig.build_path",)),
    "simulate.gaussian_noise": ("simulate", ("gaussian_noise",)),
    "vehicle.step_nonlinear": ("simulate", ("step_nonlinear",)),
    "linearize": ("controllers", ("linearize_initial", "linearize_position",
                                  "linearize_velocity")),
    "qp.build_prediction": ("controllers", ("build_prediction",)),
    "qp.horizon_weights": ("controllers", ("horizon_weights",)),
    "qp.build_tracking_qp": ("controllers", ("build_tracking_qp",)),
    "qp.solve_box_qp": ("controllers", ("solve_box_qp",)),
    "controllers.generate_delta_refs": ("controllers", ("generate_delta_refs",)),
    "cli.write_trace": ("cli", ("write_trace",)),
    "cli.write_manifest": ("cli", ("write_manifest",)),
}
STEP_SPAN = "controllers.step"  # every entry of controllers.CONTROLLER_STEPS
ROOT_SPAN = "cli.compare"       # the benchmark's own call of run_compare


def _harness_note(args, result):
    return args[0].variant


def _solve_note(args, result):
    qp = args[0]
    return qp.lb, qp.ub, result


NOTES = {"simulate.harness": _harness_note, "qp.solve_box_qp": _solve_note}


class Tracer:
    """Collects spans as (name, parent index, start ns, end ns, note)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end,
                              note(args, result) if note is not None else None)

        return traced

    @contextlib.contextmanager
    def installed(self, trackmpc):
        """Patch every traced function of the imported package; undo on exit."""
        modules = {
            "cli": trackmpc.cli,
            "config": trackmpc.config,
            "simulate": trackmpc.simulate,
            "controllers": trackmpc.controllers,
        }
        with contextlib.ExitStack() as stack:
            for name, (module, attrs) in TRACED.items():
                for attr in attrs:
                    owner = modules[module]
                    *outer, leaf = attr.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    wrapped = self.wrap(name, getattr(owner, leaf), NOTES.get(name))
                    stack.enter_context(mock.patch.object(owner, leaf, wrapped))
            steps = trackmpc.controllers.CONTROLLER_STEPS
            stack.enter_context(mock.patch.dict(
                steps, {v: self.wrap(STEP_SPAN, fn) for v, fn in steps.items()}))
            yield self

    def write_jsonl(self, target) -> None:
        with open(target, "w") as handle:
            for sid, (name, parent, start, end, note) in enumerate(self.spans):
                record = {"id": sid, "name": name, "parent": parent,
                          "start_ns": start, "end_ns": end}
                if isinstance(note, str):
                    record["variant"] = note
                handle.write(json.dumps(record) + "\n")
