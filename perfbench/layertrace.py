"""Layer tracing for the benchmark's traced runs.

Wrappers are installed from here, not inside the package: each wrapped
function is replaced in every dsekit module that holds a reference to it,
which is where its callers look it up.  A span records its name, start,
end and the span that was open when it started; spans stay in memory and
are written once, when the run ends.  A layer's self time is its spans'
durations minus the part covered by their direct children.

Span names are the per-layer metric names without the _s suffix.  Count
names are the metric names themselves.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrapping

    def span(self, name, fn, calls=None, on_result=None):
        """fn wrapped in a span; calls names a count bumped per call, and
        on_result(result, args) may bump further counts."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        open_ = self._open
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        counts = self.counts

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(name_id)
            parent.append(open_[-1] if open_ else -1)
            start.append(perf_counter_ns())
            end.append(0)
            open_.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                open_.pop()
            if calls is not None:
                counts[calls] += 1
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def counted(self, fn, calls=None, on_result=None):
        """fn wrapped without a span, so its time stays with its caller."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if calls is not None:
                counts[calls] += 1
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def patch(self, original, wrapper) -> None:
        """Replace original by wrapper wherever a dsekit module holds it."""
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "dsekit" or mod_name.startswith("dsekit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ----------------------------------------------------------- results

    def self_times_per_root(self) -> list[dict[str, float]]:
        """Self time per span name, in seconds, for each top-level span
        in the order they ran; every span is attributed to the top-level
        span it ran under."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name_of = np.frombuffer(self.name_of, dtype=np.int64)
        dur = (end - start).astype(float)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        # spans are numbered as they open and top-level spans run one after
        # another, so a span belongs to the last top-level span before it
        roots = np.flatnonzero(~nested)
        root_of = np.searchsorted(roots, np.arange(dur.size), side="right") - 1
        names = len(self.names)
        own = np.bincount(
            root_of * names + name_of, weights=dur - covered, minlength=roots.size * names
        ).reshape(roots.size, names)
        return [
            {name: float(row[i]) / 1e9 for i, name in enumerate(self.names)} for row in own
        ]

    def write(self, path) -> None:
        """Spans as parallel arrays, names indexed by name_of."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def _file_bytes(counter: Counter, name: str):
    def on_result(result, args):
        counter[name] += os.path.getsize(args[0])

    return on_result


# (module, function, span or None to count without one, call count,
# result hook) for every wrapped function.
def _table(counts: Counter):
    def downweighted(result, args):
        counts["filters.huber_downweighted"] += int(np.count_nonzero(result.weights < 1.0))

    cli_bytes = _file_bytes(counts, "cli.csv_bytes")
    harness_bytes = _file_bytes(counts, "harness.csv_bytes")
    return (
        ("cli", "main", "cli.main", None, None),
        ("cli", "_write_series_csv", None, None, cli_bytes),
        ("cli", "_write_metrics_csv", None, None, cli_bytes),
        ("harness", "run_experiment", "harness.run_experiment", None, None),
        ("harness", "write_matrix_csv", "harness.csv_write", None, harness_bytes),
        ("harness", "write_summary_csv", "harness.csv_write", None, harness_bytes),
        ("evaluation", "report_from_run", "evaluation.report_from_run", None, None),
        ("scenario", "simulate_truth", "scenario.simulate_truth", None, None),
        ("scenario", "synthesize_measurements", "scenario.synthesize_measurements", None, None),
        ("scenario", "filter_series", "scenario.filter_series", None, None),
        ("scenario", "steady_state_init", None, "scenario.steady_state_init_calls", None),
        ("machine", "measure", "machine.measure", "machine.measure_calls", None),
        ("machine", "measurement_covariance", "machine.measurement_covariance",
         "machine.measurement_covariance_calls", None),
        ("noise", "corrupt", "noise.corrupt", None, None),
        ("noise", "inject_outliers", "noise.inject_outliers", None, None),
        ("filters", "time_predict", "filters.time_predict", "filters.time_predict_calls", None),
        ("filters", "ckf_update", "filters.ckf_update", None, None),
        ("filters", "rckf_update", "filters.rckf_update", None, None),
        ("filters", "huber_reweight", "filters.huber_reweight", None, downweighted),
        ("filters", "cholesky_lower", "filters.cholesky_lower", "filters.cholesky_lower_calls", None),
    )


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports.  A
    function the program no longer has is skipped, and its metrics read 0."""
    t = tracer
    for module, name, span, calls, on_result in _table(t.counts):
        fn = getattr(importlib.import_module(f"dsekit.{module}"), name, None)
        if fn is None:
            continue
        t.patch(fn, t.span(span, fn, calls, on_result) if span else t.counted(fn, calls, on_result))

    # the model hooks are built per call of as_process_model, so they are
    # wrapped on the model it returns
    machine = importlib.import_module("dsekit.machine")
    as_process_model = getattr(machine, "as_process_model", None)
    if as_process_model is None:
        return
    hooks = (
        ("transition", "machine.transition", None),
        ("transition_points", "machine.transition_points", "machine.transition_points_calls"),
        ("observe_points", "machine.observe_points", None),
    )

    def traced_process_model(*args, **kwargs):
        model = as_process_model(*args, **kwargs)
        wrapped = {
            field: t.span(span, getattr(model, field), calls)
            for field, span, calls in hooks
            if getattr(model, field, None) is not None
        }
        return dataclasses.replace(model, **wrapped)

    t.patch(as_process_model, traced_process_model)
