"""Span tracer for the benchmark's traced repetitions.

Each traced function is replaced, for the length of one repetition, by a
wrapper that records a span (name, parent span, start, end) and feeds a few
counters.  Wrappers are installed at every name a caller looks up: the
package binds most cross-module calls with ``from ... import``, so e.g.
``evaluation.step_batch`` and ``trainer.tf_loss_grads`` are rebound in the
calling module as well as in the defining one.

Spans are kept in memory and turned into per-layer metrics after the
repetition; a span's self time is its length minus the time its child spans
cover.
"""

from __future__ import annotations

import csv
import os
import statistics
import time

# Traced functions: (span name, defining module, function, modules that bind
# the function under the same name).  Every binding that exists is rebound.
TRACED = (
    ("splines.basis", "splines", "basis_and_derivative", ("netcore",)),
    ("netcore.forward", "netcore", "forward_batch", ()),
    ("netcore.backward", "netcore", "backward_batch", ()),
    ("netcore.checkpoint_io", "netcore", "save_branch", ("cli",)),
    ("netcore.checkpoint_io", "netcore", "load_branch", ("cli",)),
    ("hybridcell.step", "hybridcell", "step_batch", ("evaluation", "trainer")),
    ("hybridcell.step_vjp", "hybridcell", "step_vjp", ()),
    ("hybridcell.loss", "hybridcell", "tf_loss_grads", ("trainer",)),
    ("hybridcell.loss", "hybridcell", "bptt_grads_arrays", ("trainer",)),
    ("trainer.train", "trainer", "train", ("harness", "cli")),
    ("trainer.adam", "trainer", "adam_step", ()),
    ("dynamics.generate_dataset", "dynamics", "generate_dataset", ("harness", "cli")),
    ("dynamics.integrate_batch", "dynamics", "integrate_batch", ()),
    ("evaluation.sample_surface", "evaluation", "sample_surface", ("harness", "cli")),
    ("evaluation.stlsq_fit", "evaluation", "stlsq_fit", ("harness", "cli")),
    ("evaluation.test_mse", "evaluation", "test_mse", ("harness", "cli")),
    ("evaluation.rollout_mse", "evaluation", "rollout_mse", ("cli",)),
    ("evaluation.bootstrap_ci", "evaluation", "bootstrap_ci", ("harness",)),
    ("evaluation.export_surface", "evaluation", "export_surface", ("cli",)),
    ("evaluation.write_metrics", "evaluation", "write_metrics", ("harness",)),
    ("harness.run_single_seed", "harness", "run_single_seed", ()),
    ("harness.run_sweep", "harness", "run_sweep", ()),
    ("cli.main", "cli", "main", ()),
)

SELF_TIMES = (
    "splines.basis", "netcore.forward", "netcore.backward",
    "netcore.checkpoint_io", "hybridcell.step", "hybridcell.step_vjp",
    "hybridcell.loss", "trainer.train", "trainer.adam",
    "dynamics.generate_dataset", "dynamics.integrate_batch",
    "evaluation.sample_surface", "evaluation.stlsq_fit", "evaluation.test_mse",
    "evaluation.bootstrap_ci", "evaluation.export_surface",
    "evaluation.rollout_mse", "harness.run_single_seed", "harness.run_sweep",
    "cli.main",
)
CALLS = (
    "splines.basis", "netcore.forward", "netcore.backward", "hybridcell.step",
    "hybridcell.step_vjp", "hybridcell.loss", "trainer.adam",
    "dynamics.generate_dataset", "evaluation.rollout_mse",
    "harness.run_single_seed", "cli.main",
)

# Per-layer metrics and their units, in the order they are reported.
UNITS = {
    "splines.basis.calls": "count",
    "splines.basis.points": "count",
    "splines.basis.self_s": "s",
    "splines.basis.cols_per_point": "cols/point",
    "netcore.forward.calls": "count",
    "netcore.forward.rows": "count",
    "netcore.forward.self_s": "s",
    "netcore.backward.calls": "count",
    "netcore.backward.rows": "count",
    "netcore.backward.self_s": "s",
    "netcore.rows_per_call": "rows/call",
    "netcore.kan.coef_macs": "count",
    "netcore.checkpoint_io.self_s": "s",
    "hybridcell.step.calls": "count",
    "hybridcell.step.self_s": "s",
    "hybridcell.step_vjp.calls": "count",
    "hybridcell.step_vjp.self_s": "s",
    "hybridcell.loss.calls": "count",
    "hybridcell.loss.self_s": "s",
    "hybridcell.divergences": "count",
    "trainer.train.self_s": "s",
    "trainer.adam.calls": "count",
    "trainer.adam.self_s": "s",
    "trainer.step_ms.p50": "ms",
    "trainer.step_ms.p99": "ms",
    "trainer.loss_evals": "count",
    "trainer.useful_ratio": "ratio",
    "trainer.clip_events": "count",
    "trainer.unstable_seeds": "count",
    "dynamics.generate_dataset.calls": "count",
    "dynamics.generate_dataset.self_s": "s",
    "dynamics.integrate_batch.self_s": "s",
    "dynamics.datasets_per_seed": "count/seed",
    "evaluation.sample_surface.self_s": "s",
    "evaluation.stlsq_fit.self_s": "s",
    "evaluation.test_mse.self_s": "s",
    "evaluation.bootstrap_ci.self_s": "s",
    "evaluation.export_surface.self_s": "s",
    "evaluation.rollout_mse.calls": "count",
    "evaluation.rollout_mse.self_s": "s",
    "evaluation.bytes_written": "B",
    "harness.run_single_seed.calls": "count",
    "harness.run_single_seed.self_s": "s",
    "harness.run_sweep.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self, package):
        self.pkg = package
        self.spans: list[list] = []  # [name, parent index, start, end, child seconds]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.step_ms: list[float] = []
        self._step_mark = 0.0
        self._basis_width = 0
        self._width_by_arch: dict = {}

    def _add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = getattr(self, "_before_" + fn.__name__, None)
        after = getattr(self, "_after_" + fn.__name__, None)
        failed = getattr(self, "_failed_" + fn.__name__, None)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                end = rec[3] = clock()
                stack.pop()
                if rec[1] >= 0:
                    spans[rec[1]][4] += end - rec[2]
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every traced function; returns a callable that undoes it."""
        undo = []
        for name, home, attr, callers in TRACED:
            home_mod = getattr(self.pkg, home)
            original = getattr(home_mod, attr)
            wrapper = self.wrap(name, original)
            for mod in (home_mod, *(getattr(self.pkg, c) for c in callers)):
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))

        def restore():
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)
        return restore

    # Counter hooks, looked up by the wrapped function's name.

    def _after_basis_and_derivative(self, args, kwargs, result):
        points = result[0].size // result[0].shape[-1]
        self._basis_width = result[0].shape[-1]
        self._add("splines.basis.points", points)
        self._add("_basis_cols", points * self._basis_width)

    def _kan_edges(self, branch):
        widths = branch.arch.widths
        return sum(a * b for a, b in zip(widths[:-1], widths[1:]))

    def _before_forward_batch(self, args, kwargs):
        self._basis_width = 0

    def _after_forward_batch(self, args, kwargs, result):
        rows = result[0].shape[0]
        self._add("netcore.forward.rows", rows)
        branch = args[0]
        if self._basis_width:
            self._width_by_arch[branch.arch] = self._basis_width
            self._add("netcore.kan.coef_macs",
                      rows * self._kan_edges(branch) * self._basis_width)

    def _after_backward_batch(self, args, kwargs, result):
        branch, upstream = args[0], args[2]
        rows = len(upstream)
        self._add("netcore.backward.rows", rows)
        width = self._width_by_arch.get(branch.arch, 0)
        if width:
            passes = (result[0] is not None) + (result[1] is not None)
            self._add("netcore.kan.coef_macs",
                      passes * rows * self._kan_edges(branch) * width)

    def _failed_step_batch(self, exc):
        if isinstance(exc, self.pkg.dynamics.DivergenceError):
            self._add("hybridcell.divergences", 1)

    def _before_train(self, args, kwargs):
        self._step_mark = time.perf_counter()

    def _after_train(self, args, kwargs, result):
        if result.status == self.pkg.trainer.UNSTABLE:
            self._add("trainer.unstable_seeds", 1)

    def _before_adam_step(self, args, kwargs):
        grads, cfg = args[1], args[4]
        norm = float(self.pkg.np.linalg.norm(grads))
        if cfg.grad_clip > 0 and norm > cfg.grad_clip:
            self._add("trainer.clip_events", 1)

    def _after_adam_step(self, args, kwargs, result):
        now = time.perf_counter()
        self.step_ms.append(1000.0 * (now - self._step_mark))
        self._step_mark = now

    def _after_export_surface(self, args, kwargs, result):
        self._add("evaluation.bytes_written", sum(os.path.getsize(p) for p in result))

    def _after_write_metrics(self, args, kwargs, result):
        self._add("evaluation.bytes_written", os.path.getsize(args[0]))

    def metrics(self, seeds: int) -> dict[str, float]:
        """Per-layer metrics of the repetition; ``seeds`` is the number of
        seeds (or checkpoints) it completed."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for name, _, start, end, child in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
        c = self.counts
        out = {f"{n}.calls": calls.get(n, 0) for n in CALLS}
        out.update({f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_TIMES})
        fwd_rows = c.get("netcore.forward.rows", 0)
        bwd_rows = c.get("netcore.backward.rows", 0)
        points = c.get("splines.basis.points", 0)
        nn_calls = out["netcore.forward.calls"] + out["netcore.backward.calls"]
        loss_evals = out["hybridcell.loss.calls"]
        step_ms = sorted(self.step_ms)
        out.update({
            "splines.basis.points": points,
            "splines.basis.cols_per_point": c.get("_basis_cols", 0) / points if points else 0,
            "netcore.forward.rows": fwd_rows,
            "netcore.backward.rows": bwd_rows,
            "netcore.rows_per_call": (fwd_rows + bwd_rows) / nn_calls if nn_calls else 0,
            "netcore.kan.coef_macs": c.get("netcore.kan.coef_macs", 0),
            "hybridcell.divergences": c.get("hybridcell.divergences", 0),
            "trainer.step_ms.p50": _percentile(step_ms, 0.50),
            "trainer.step_ms.p99": _percentile(step_ms, 0.99),
            "trainer.loss_evals": loss_evals,
            "trainer.useful_ratio": out["trainer.adam.calls"] / loss_evals if loss_evals else 0,
            "trainer.clip_events": c.get("trainer.clip_events", 0),
            "trainer.unstable_seeds": c.get("trainer.unstable_seeds", 0),
            "dynamics.datasets_per_seed": out["dynamics.generate_dataset.calls"] / seeds,
            "evaluation.bytes_written": c.get("evaluation.bytes_written", 0),
        })
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span; ``parent`` is the row index of the
        enclosing span, -1 for a top-level call."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("id", "parent", "name", "start_s", "end_s", "self_s"))
            t0 = self.spans[0][2] if self.spans else 0.0
            for i, (name, parent, start, end, child) in enumerate(self.spans):
                w.writerow((i, parent, name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                            f"{end - start - child:.9f}"))


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]


def combine(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced repetitions; a metric that reads
    the same in every repetition (every count should) is kept as is."""
    out = {}
    for k in per_rep[0]:
        vals = [m[k] for m in per_rep]
        out[k] = vals[0] if vals.count(vals[0]) == len(vals) else statistics.median(vals)
    return out
