"""Span tracing of the package's public functions, from outside the package.

`Tracer` replaces each function in TRACED with a timing wrapper in every
`boxperturb` module namespace that binds it (for example `cli` binds
`dsc` and `nsd`, and `toyseg` binds `box_from_mask`), and puts the
originals back on exit.  Spans (name, start, end, parent) stay in memory
until the run writes them out.  A span's self time is its duration minus
the durations of its direct children; calls are single-threaded, so the
children of one span never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped by the tracer, named "<module>.<function>".
TRACED = (
    ("rng", "make_rng"),
    ("geometry", "box_from_mask"), ("geometry", "coefficients_for"),
    ("perturb", "sample_perturbed_box"), ("perturb", "sample_baseline_box"),
    ("toyseg", "featurize"), ("toyseg", "weight_gradient"), ("toyseg", "train_step"),
    ("toyseg", "predict"), ("toyseg", "train"), ("toyseg", "evaluate"),
    ("loss", "combined_loss"), ("loss", "loss_gradient"),
    ("metrics", "dsc"), ("metrics", "nsd"), ("metrics", "boundary"),
    ("metrics", "distance_transform"),
    ("data", "gen_synthetic"), ("data", "save_dataset"), ("data", "load_dataset"),
    ("data", "read_mask_pgm"), ("data", "read_f32_grid"), ("data", "write_f32_grid"),
    ("data", "window_normalize"), ("data", "resample_bilinear"),
    ("cli", "main"), ("cli", "run_ablation"),
)

# Functions whose tracemalloc peak is recorded per call (the largest is kept).
PEAK_MEMORY = {"metrics.distance_transform", "data.resample_bilinear"}

# Subcommands the benchmark runs; `cli.main` spans are named per subcommand.
SUBCOMMANDS = ("ablate", "eval", "perturb", "preprocess")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_perturbed(tracer, args, kwargs, result):
    max_resample = _arg(args, kwargs, 4, "config").max_resample
    tracer.counts["perturb.resamples"] += result.resample_count
    tracer.counts["perturb.repairs"] += result.resample_count > max_resample
    tracer.counts["perturb.first_draw_accepts"] += result.resample_count == 0


def _on_featurize(tracer, args, kwargs, result):
    h, w = _arg(args, kwargs, 0, "image").shape[:2]
    tracer.counts["toyseg.featurize.computed_bytes"] += h * w * 6 * 8


def _on_read_grid(tracer, args, kwargs, result):
    tracer.counts["data.read_f32_grid.bytes"] += 16 + 4 * result.size


def _on_write_grid(tracer, args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    tracer.counts["data.write_f32_grid.bytes"] += 16 + 4 * grid.size


def _on_metric(name):
    def hook(tracer, args, kwargs, result):
        if tracer.capture:
            g = _arg(args, kwargs, 0, "g")
            s = _arg(args, kwargs, 1, "s")
            tau = _arg(args, kwargs, 2, "tau") if name == "nsd" else None
            tracer.captured.append((name, g.copy(), s.copy(), tau, result))
    return hook


HOOKS = {
    "perturb.sample_perturbed_box": _on_perturbed,
    "toyseg.featurize": _on_featurize,
    "data.read_f32_grid": _on_read_grid,
    "data.write_f32_grid": _on_write_grid,
    "metrics.dsc": _on_metric("dsc"),
    "metrics.nsd": _on_metric("nsd"),
}


class Tracer:
    """Context manager that wraps TRACED while active and records spans.

    With capture=True every `dsc`/`nsd` call's masks, tau and result are
    kept so that they can be checked against the reference afterwards.
    """

    def __init__(self, capture: bool = False):
        self.capture = capture
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.peaks: defaultdict[str, int] = defaultdict(int)
        self.captured: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, qual: str, fn):
        hook = HOOKS.get(qual)
        peak = qual in PEAK_MEMORY
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = qual
            if qual == "cli.main":
                name = f"cli.main.{_arg(args, kwargs, 0, 'argv')[0]}"
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            if peak:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if peak:
                    self.peaks[qual] = max(self.peaks[qual], tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                span[1], span[2] = start, end
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "boxperturb" or n.startswith("boxperturb."))]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"boxperturb.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        return False

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), child_s in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_s
        return out

    def write_spans(self, path, phase: str):
        """Append this tracer's spans to a JSON-lines file, one span a line."""
        with open(path, "a") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"phase": phase, "id": i, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")


def layer_metrics(setup: Tracer, run: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced set-up and the traced round."""
    t = run.totals()
    su = setup.totals()

    def get(name, key):
        return t[name][key] if name in t else (0 if key == "calls" else 0.0)

    m: dict[str, tuple[float, str]] = {}

    def calls(name):
        m[f"{name}.calls"] = (get(name, "calls"), "count")

    def self_s(name):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")

    def total_s(name, source=None):
        rows = su if source == "setup" else t
        m[f"{name}.s"] = (rows[name]["s"] if name in rows else 0.0, "s")

    calls("rng.make_rng"); self_s("rng.make_rng")
    calls("geometry.box_from_mask"); self_s("geometry.box_from_mask")
    self_s("geometry.coefficients_for")
    for name in ("perturb.sample_perturbed_box", "perturb.sample_baseline_box"):
        calls(name); self_s(name)
    draws = get("perturb.sample_perturbed_box", "calls")
    m["perturb.resamples"] = (run.counts["perturb.resamples"], "count")
    m["perturb.repairs"] = (run.counts["perturb.repairs"], "count")
    m["perturb.first_draw_accept_ratio"] = (
        run.counts["perturb.first_draw_accepts"] / draws if draws else 0.0, "ratio")
    calls("toyseg.featurize"); self_s("toyseg.featurize")
    m["toyseg.featurize.computed_bytes"] = (run.counts["toyseg.featurize.computed_bytes"], "bytes")
    self_s("toyseg.weight_gradient"); self_s("toyseg.train_step")
    calls("toyseg.predict"); self_s("toyseg.predict")
    total_s("toyseg.train"); total_s("toyseg.evaluate")
    calls("loss.combined_loss"); self_s("loss.combined_loss"); self_s("loss.loss_gradient")
    calls("metrics.dsc"); self_s("metrics.dsc")
    calls("metrics.nsd"); self_s("metrics.nsd")
    self_s("metrics.boundary")
    calls("metrics.distance_transform"); self_s("metrics.distance_transform")
    m["metrics.distance_transform.peak_bytes"] = (run.peaks["metrics.distance_transform"], "bytes")
    total_s("data.gen_synthetic", "setup"); total_s("data.save_dataset", "setup")
    total_s("data.load_dataset")
    self_s("data.read_mask_pgm")
    self_s("data.read_f32_grid")
    m["data.read_f32_grid.bytes"] = (run.counts["data.read_f32_grid.bytes"], "bytes")
    self_s("data.write_f32_grid")
    m["data.write_f32_grid.bytes"] = (run.counts["data.write_f32_grid.bytes"], "bytes")
    self_s("data.window_normalize")
    self_s("data.resample_bilinear")
    m["data.resample_bilinear.peak_bytes"] = (run.peaks["data.resample_bilinear"], "bytes")
    for sub in SUBCOMMANDS:
        total_s(f"cli.main.{sub}")
    total_s("cli.run_ablation")
    m["trace.spans"] = (len(run.spans), "count")
    return m
