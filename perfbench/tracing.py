"""The traced run: spans around calls into each module's public functions,
recorded from outside the program.

Every public function of ``state_model``, ``fisher_single``,
``qfim_two_param``, ``numeric_oracle``, ``sweep`` and ``cli`` is replaced,
under every name a caller looks it up by (the module's own namespace, the
modules that import it, and the package), with a wrapper that records a
span.  Spans are aggregated in memory per (operation, function, parent):
calls, calls that raised, total and self nanoseconds, where self time is a
span's duration minus that of its child spans.  Private helpers are not
wrapped, so their time counts as the self time of the public function that
called them.
"""

from __future__ import annotations

import functools
import inspect
import time
import types

MODULES = ("state_model", "fisher_single", "qfim_two_param", "numeric_oracle",
           "sweep", "cli")
# the state_model entry points the issue counts per row
STATE_MODEL_COUNTED = {"overlap", "spectral", "concurrence", "concurrence_max",
                       "concurrence_normalized", "theta_from_concurrence"}


class Tracer:
    def __init__(self):
        self.spans: dict[tuple, list[int]] = {}   # (op, name, parent) -> [calls, raised, ns, self ns]
        self.op = ""
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            raised = 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                key = (self.op, name, parent)
                rec = spans.get(key)
                if rec is None:
                    spans[key] = [1, raised, dur, dur - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += raised
                    rec[2] += dur
                    rec[3] += dur - frame[1]

        return traced

    def install(self, package) -> None:
        modules = [getattr(package, m) for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for ns in [package, *modules]:
            for name, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(ns, name, wrappers[obj])
                    self._patched.append((ns, name, obj))

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._patched):
            setattr(ns, name, obj)
        self._patched.clear()

    def take(self) -> dict:
        """The spans recorded since the last take."""
        spans = dict(self.spans)
        self.spans.clear()
        return spans


def counts(spans: dict) -> dict:
    """The part of a pass's spans that must repeat exactly."""
    return {key: rec[:2] for key, rec in spans.items()}


def _sum(spans, idx, module=None, names=None, ops=None):
    total = 0
    for (op, name, _), rec in spans.items():
        mod, fn = name.split(".", 1)
        if ((module is None or mod == module) and (names is None or fn in names)
                and (ops is None or op in ops)):
            total += rec[idx]
    return total


def layer_metrics(spans: dict, rows: int, ops: list, op_rows: dict) -> dict:
    """Per-layer metrics of one traced pass; ``rows`` is the pass's unit of
    work (emitted rows, or calls for point queries)."""
    calls, raised, total, self_ns = 0, 1, 2, 3

    def per_row(x):
        return x / rows if rows else 0.0

    def per_call_ms(fn, grid):
        sel = {op.label for op in ops if op.grid == grid}
        n = _sum(spans, calls, "numeric_oracle", {fn}, sel)
        return _sum(spans, total, "numeric_oracle", {fn}, sel) / n / 1e6 if n else 0.0

    def emit_us(fmt):
        sel = {op.label for op in ops if op.fmt == fmt}
        n = sum(op_rows.get(label, 0) for label in sel)
        return _sum(spans, total, "sweep", {"emit"}, sel) / n / 1e3 if n else 0.0

    fs_calls = _sum(spans, calls, "fisher_single")
    return {
        "state_model.calls_per_row": per_row(_sum(spans, calls, "state_model",
                                                  STATE_MODEL_COUNTED)),
        "state_model.self_us": per_row(_sum(spans, self_ns, "state_model")) / 1e3,
        "fisher_single.calls_per_row": per_row(fs_calls),
        "fisher_single.self_us": per_row(_sum(spans, self_ns, "fisher_single")) / 1e3,
        "fisher_single.useful_share":
            (fs_calls - _sum(spans, raised, "fisher_single")) / fs_calls if fs_calls else 0.0,
        "qfim_two_param.qfim_calls_per_row": per_row(_sum(spans, calls, "qfim_two_param",
                                                          {"qfim"})),
        "qfim_two_param.self_us": per_row(_sum(spans, self_ns, "qfim_two_param")) / 1e3,
        "numeric_oracle.qfim_ms.n1024": per_call_ms("numeric_qfim", 1024),
        "numeric_oracle.qfim_ms.n4096": per_call_ms("numeric_qfim", 4096),
        "numeric_oracle.qfim_ms.n16384": per_call_ms("numeric_qfim", 16384),
        "numeric_oracle.pure_qfi_ms.n4096": per_call_ms("numeric_pure_qfi", 4096),
        "sweep.run_sweep_self_s": _sum(spans, self_ns, "sweep", {"run_sweep"}) / 1e9,
        "sweep.emit_csv_us_per_row": emit_us("csv"),
        "sweep.emit_json_us_per_row": emit_us("json"),
        "cli.self_s": _sum(spans, self_ns, "cli") / 1e9,
    }
