"""The benchmark's workloads and the process that runs one of them.

A workload makes its inputs from the seed (set-up), then runs timed
rounds.  A round is one pass of `boxperturb.cli.main` invocations over
those inputs, always the same list, so every run attempts whole rounds
of the same operations.  Outputs are checked after each round, outside
the timed region: the first round's outputs against the reference
computations in `reference.py`, every later round's byte for byte
against the first.

Run one workload in this process (run.py starts it as a child):

    python3 perfbench/workloads.py --workload eval-512 --seed 1 --seconds 20 --trace 0

The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import boxperturb.cli
from boxperturb import data

import reference
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# An untraced run sets up at least this many times and for at least this
# long, into the same directory; setup_s is the median set-up.
SETUP_MIN_REPEATS, SETUP_MIN_S = 5, 1.5

# The documented `perturb` defaults the perturb-draws checks rely on.
EPS_SHRINK, DELTA_EXPAND, THETA_FLOOR, MIN_BOX, MAX_RESAMPLE = -20.0, 20.0, 0.01, 1.0, 10

# Float32 output is within half an ulp of the float64 result; an ulp in
# [0.5, 1) is 2**-24.
F32_TOL = 2.0 ** -24

EDGE_TOL = 1e-9


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


class Workload:
    """Inputs from a seed, one round of CLI invocations, checks of the outputs."""

    name = ""
    named_metric = ("", "")  # the workload's own throughput or time, as printed

    def setup(self, inputs: Path, seed: int):
        raise NotImplementedError

    def invocations(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out: Path) -> list[tuple[Path, list[str]]]:
        """Per output file, the ways it is wrong (empty when it is right)."""
        raise NotImplementedError

    def named_value(self, round_s: float) -> float:
        raise NotImplementedError


class Ablate(Workload):
    """The four-row ablation on a standard and a tiny suite at 128^2."""

    name = "ablate-128"
    named_metric = ("ablate_s", "s")
    GRID, N_STANDARD, N_TINY = 128, 20, 20
    ROWS = ("baseline", "+theta_xi", "+bidirectional", "full")

    def setup(self, inputs, seed):
        self.inputs = inputs
        for suite, n in (("standard", self.N_STANDARD), ("tiny", self.N_TINY)):
            split = data.gen_synthetic(n, suite=suite, grid=self.GRID, seed=seed)
            data.save_dataset(split, inputs / suite, suite=suite, grid=self.GRID, seed=seed)

    def invocations(self, out):
        return [["ablate", "--data-dir", str(self.inputs), "--out", str(out / "ablation.csv")]]

    def check(self, out):
        path = out / "ablation.csv"
        errors = []
        lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        if tuple(r["config"] for r in rows) != self.ROWS:
            errors.append(f"rows are {[r['config'] for r in rows]}")
        n_test = {s: len(json.loads((self.inputs / s / "manifest.json").read_text())["splits"]["test"])
                  for s in ("standard", "tiny")}
        for r in rows:
            for key in header:
                if key.startswith(("dsc_", "nsd_")) or key == "error_rate":
                    if not 0.0 <= float(r[key]) <= 1.0:
                        errors.append(f"{r['config']} {key} = {r[key]} outside [0, 1]")
            k = float(r["error_rate"]) * n_test["tiny"]
            if abs(k - round(k)) > 1e-9:
                errors.append(f"{r['config']} error_rate {r['error_rate']} is not a multiple "
                              f"of 1/{n_test['tiny']}")
            if (int(r["n_standard_test"]), int(r["n_tiny_test"])) != (n_test["standard"], n_test["tiny"]):
                errors.append(f"{r['config']} test counts differ from the manifests")
        return [(path, errors)]

    def named_value(self, round_s):
        return round_s


def _shift(mask, dy, dx):
    out = np.zeros_like(mask)
    h, w = mask.shape
    out[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
        mask[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
    return out


def _grow(mask, steps, dilate):
    """Dilate (or erode) by `steps` 4-neighbour steps."""
    m = mask.copy()
    for _ in range(steps):
        p = np.pad(m, 1, constant_values=not dilate)
        nbrs = (p[:-2, 1:-1], p[2:, 1:-1], p[1:-1, :-2], p[1:-1, 2:])
        for n in nbrs:
            m = (m | n) if dilate else (m & n)
    return m


class Eval(Workload):
    """`eval` on 512^2 GT/prediction pairs: one identity pair and four derived ones."""

    name = "eval-512"
    named_metric = ("eval_pairs_per_s", "pairs/s")
    GRID = 512
    # (how the prediction is derived from the GT mask, tau)
    PAIRS = (("identity", 2.0), ("shift", 2.0), ("erode", 3.0), ("dilate", 5.0), ("box", 8.0))

    def setup(self, inputs, seed):
        inputs.mkdir(parents=True, exist_ok=True)
        split = data.gen_synthetic(10, suite="standard", grid=self.GRID, seed=seed)
        rng = _rng(seed, 1)
        self.pairs = []
        for i, ((kind, tau), sample) in enumerate(zip(self.PAIRS, split.all_samples)):
            gt = sample.mask
            if kind == "identity":
                pred = gt
            elif kind == "shift":
                dy, dx = (int(v) * (1 if rng.random() < 0.5 else -1) for v in rng.integers(1, 9, 2))
                pred = _shift(gt, dy, dx)
            elif kind in ("erode", "dilate"):
                pred = _grow(gt, int(rng.integers(1, 4)), kind == "dilate")
            else:
                x0, y0, x1, y1 = (int(v) for v in reference.box_ref(gt))
                pred = np.zeros_like(gt)
                pred[y0:y1, x0:x1] = True
            g_path, p_path = inputs / f"gt_{i}.pgm", inputs / f"pred_{i}.pgm"
            data.write_mask_pgm(g_path, gt)
            data.write_mask_pgm(p_path, pred)
            self.pairs.append((g_path, p_path, tau, gt, pred, kind))

    def invocations(self, out):
        return [["eval", "--gt", str(g), "--pred", str(p), "--tau", repr(tau),
                 "--out", str(out / f"eval_{i}.json")]
                for i, (g, p, tau, *_rest) in enumerate(self.pairs)]

    def check(self, out):
        results = []
        for i, (_g, _p, tau, gt, pred, kind) in enumerate(self.pairs):
            path = out / f"eval_{i}.json"
            doc = json.loads(path.read_text())
            want = {"dsc": reference.dsc_ref(gt, pred), "nsd": reference.nsd_ref(gt, pred, tau)}
            errors = [f"{k} = {doc[k]!r}, reference {v!r}" for k, v in want.items() if doc[k] != v]
            if kind == "identity" and (doc["dsc"], doc["nsd"]) != (1.0, 1.0):
                errors.append(f"identity pair gives dsc {doc['dsc']!r}, nsd {doc['nsd']!r}")
            results.append((path, errors))
        return results

    def named_value(self, round_s):
        return len(self.PAIRS) / round_s


class Perturb(Workload):
    """`perturb` on 128^2 masks: eight large, eight tiny and eight one-pixel-thin targets."""

    name = "perturb-draws"
    named_metric = ("draws_per_s", "draws/s")
    GRID, PER_KIND, DRAWS = 128, 8, 250

    def setup(self, inputs, seed):
        inputs.mkdir(parents=True, exist_ok=True)
        masks = [s.mask for s in data.gen_synthetic(10, "standard", self.GRID, seed).all_samples[:self.PER_KIND]]
        masks += [s.mask for s in data.gen_synthetic(10, "tiny", self.GRID, seed).all_samples[:self.PER_KIND]]
        rng = _rng(seed, 2)
        for i in range(self.PER_KIND):
            length = int(rng.integers(16, 101))
            r0, c0 = (int(v) for v in rng.integers(0, self.GRID - length, 2))
            thin = np.zeros((self.GRID, self.GRID), bool)
            if i % 2:
                thin[r0:r0 + length, c0] = True
            else:
                thin[r0, c0:c0 + length] = True
            masks.append(thin)
        self.masks = []
        for i, mask in enumerate(masks):
            path = inputs / f"mask_{i}.pgm"
            data.write_mask_pgm(path, mask)
            self.masks.append((path, mask, seed * 1000 + i))

    def invocations(self, out):
        return [["perturb", "--mask", str(p), "--n", str(self.DRAWS), "--seed", str(key),
                 "--out", str(out / f"perturb_{i}.csv")]
                for i, (p, _m, key) in enumerate(self.masks)]

    def check(self, out):
        return [(out / f"perturb_{i}.csv", self._check_csv(out / f"perturb_{i}.csv", mask))
                for i, (_p, mask, _k) in enumerate(self.masks)]

    def _check_csv(self, path, mask):
        h, w = mask.shape
        bx0, by0, bx1, by1 = reference.box_ref(mask)
        theta, xi = reference.theta_xi_ref(mask, THETA_FLOOR)
        eps1, delta1 = EPS_SHRINK * theta, DELTA_EXPAND * theta
        want_offsets = (eps1, eps1 / xi, delta1, delta1 / xi)
        e_x, d_x, e_y, d_y = -want_offsets[0], want_offsets[2], -want_offsets[1], want_offsets[3]
        clamp_x = lambda v: min(max(v, 0.0), float(w))
        clamp_y = lambda v: min(max(v, 0.0), float(h))
        intervals = ((clamp_x(bx0 - d_x), clamp_x(bx0 + e_x)), (clamp_y(by0 - d_y), clamp_y(by0 + e_y)),
                     (clamp_x(bx1 - e_x), clamp_x(bx1 + d_x)), (clamp_y(by1 - e_y), clamp_y(by1 + d_y)))
        errors = []
        rows = [l.split(",") for l in path.read_text().splitlines() if l and not l.startswith("#")][1:]
        if [int(r[0]) for r in rows] != list(range(self.DRAWS)):
            errors.append("draw indices are not 0..n-1")
        for r in rows:
            box = tuple(float(v) for v in r[1:5])  # x_min, y_min, x_max, y_max
            offsets = tuple(float(v) for v in r[5:9])
            resamples = int(r[9])
            x0, y0, x1, y1 = box
            if not (0.0 <= x0 < x1 <= w and 0.0 <= y0 < y1 <= h):
                errors.append(f"draw {r[0]}: box {box} leaves the {w}x{h} image")
            if offsets != want_offsets:
                errors.append(f"draw {r[0]}: offsets {offsets}, reference {want_offsets}")
            if not 0 <= resamples <= MAX_RESAMPLE + 1:
                errors.append(f"draw {r[0]}: resamples = {resamples}")
            if x1 - x0 < MIN_BOX - EDGE_TOL or y1 - y0 < MIN_BOX - EDGE_TOL:
                errors.append(f"draw {r[0]}: box {box} is below the minimum size")
            if resamples <= MAX_RESAMPLE:
                for v, (lo, hi) in zip(box, intervals):
                    if not lo - EDGE_TOL <= v <= hi + EDGE_TOL:
                        errors.append(f"draw {r[0]}: edge {v} outside [{lo}, {hi}]")
            else:  # repaired: centred on the GT box, each side shrunk by the full eps
                want_w = min(max(MIN_BOX, bx1 - bx0 - 2 * e_x), float(w))
                want_h = min(max(MIN_BOX, by1 - by0 - 2 * e_y), float(h))
                if abs(x1 - x0 - want_w) > EDGE_TOL or abs(y1 - y0 - want_h) > EDGE_TOL:
                    errors.append(f"draw {r[0]}: repaired box {box} is not {want_w}x{want_h}")
                for lo, hi, centre, extent in ((x0, x1, (bx0 + bx1) / 2, w), (y0, y1, (by0 + by1) / 2, h)):
                    if abs((lo + hi) / 2 - centre) > EDGE_TOL and lo > EDGE_TOL and hi < extent - EDGE_TOL:
                        errors.append(f"draw {r[0]}: repaired box {box} is off the GT centre")
        return errors

    def named_value(self, round_s):
        return len(self.masks) * self.DRAWS / round_s


def _hu_grid(rng: np.random.Generator, size: int) -> np.ndarray:
    """A CT-like slice in Hounsfield units: air, soft-tissue body, two lungs, a bone disc."""
    yy, xx = np.mgrid[0:size, 0:size] + 0.5
    c = size / 2 + rng.uniform(-0.05, 0.05, 2) * size
    ry, rx = rng.uniform(0.28, 0.34) * size, rng.uniform(0.36, 0.44) * size
    hu = np.full((size, size), -1000.0)
    hu[((yy - c[0]) / ry) ** 2 + ((xx - c[1]) / rx) ** 2 <= 1] = 40.0
    for side in (-1, 1):
        ly, lx = c[0] - 0.1 * ry, c[1] + side * 0.45 * rx
        hu[((yy - ly) / (0.6 * ry)) ** 2 + ((xx - lx) / (0.35 * rx)) ** 2 <= 1] = -850.0
    by, bx = c[0] + 0.75 * ry, c[1]
    hu[(yy - by) ** 2 + (xx - bx) ** 2 <= (0.12 * ry) ** 2] = 700.0
    return (hu + rng.normal(0.0, 25.0, hu.shape)).astype(np.float32)


class Preprocess(Workload):
    """`preprocess --window -360 440 --resize 1024 1024` on 512^2 HU grids."""

    name = "preprocess-1024"
    named_metric = ("preprocess_mpix_per_s", "Mpixel/s")
    IN, OUT, N_GRIDS, WINDOW = 512, 1024, 6, (-360.0, 440.0)

    def setup(self, inputs, seed):
        inputs.mkdir(parents=True, exist_ok=True)
        self.grids = []
        for i in range(self.N_GRIDS):
            path = inputs / f"hu_{i}.f32g"
            data.write_f32_grid(path, _hu_grid(_rng(seed, 3, i), self.IN))
            self.grids.append(path)

    def invocations(self, out):
        lo, hi = (repr(v) for v in self.WINDOW)
        return [["preprocess", "--in", str(p), "--window", lo, hi,
                 "--resize", str(self.OUT), str(self.OUT), "--out", str(out / f"pre_{i}.f32g")]
                for i, p in enumerate(self.grids)]

    def check(self, out):
        results = []
        for i, src in enumerate(self.grids):
            path = out / f"pre_{i}.f32g"
            got = reference.read_f32g_ref(path)
            errors = []
            if got.shape != (self.OUT, self.OUT):
                errors.append(f"shape {got.shape}")
            elif not (got.min() >= 0.0 and got.max() <= 1.0):
                errors.append(f"values span [{got.min()}, {got.max()}]")
            else:
                want = reference.window_resample_ref(reference.read_f32g_ref(src), *self.WINDOW,
                                                     self.OUT, self.OUT)
                worst = float(np.abs(got - want).max())
                if worst > F32_TOL:
                    errors.append(f"differs from the reference by {worst}")
            results.append((path, errors))
        return results

    def named_value(self, round_s):
        return self.N_GRIDS * self.OUT * self.OUT / 1e6 / round_s


WORKLOADS = {w.name: w for w in (Ablate, Eval, Perturb, Preprocess)}


class Tally:
    """Operations attempted and failed: CLI invocations and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_failed = False
        self.errors: list[str] = []

    def invocation(self, rc: int, argv):
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.errors.append(f"exit {rc}: boxperturb {' '.join(argv)}")

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
            self.checks_failed = True


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs rounds of one workload, comparing each round's outputs with the first's."""

    def __init__(self, workload: Workload, out: Path, tally: Tally):
        self.w, self.out, self.tally = workload, out, tally
        self.first: dict[Path, str] | None = None

    def round(self) -> float:
        """One timed round; its invocations and output digests are tallied after it."""
        self.out.mkdir(parents=True, exist_ok=True)
        argvs = self.w.invocations(self.out)
        codes = []
        start = perf_counter()
        for argv in argvs:
            codes.append(boxperturb.cli.main(argv))
        elapsed = perf_counter() - start
        for rc, argv in zip(codes, argvs):
            self.tally.invocation(rc, argv)
        if not any(codes):
            digests = {p: _digest(p) for p in sorted(self.out.iterdir())}
            if self.first is None:
                self.first = digests
            else:
                for path, digest in self.first.items():
                    self.tally.check(digests.get(path) == digest,
                                     f"{path.name} differs from the first round's")
        return elapsed

    def check_outputs(self):
        """Check the last round's outputs, equal to every round's, against the references."""
        if self.first is None:
            return
        for path, errors in self.w.check(self.out):
            self.tally.check(not errors, f"{path.name}: {'; '.join(errors[:3])}")


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(workload: Workload, inputs: Path, seed: int) -> float:
    start = perf_counter()
    workload.setup(inputs, seed)
    return perf_counter() - start


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    workload = WORKLOADS[name]()
    tally = Tally()
    try:
        tally.attempted += reference.self_check()
    except AssertionError as e:
        tally.check(False, str(e))
    runner = Runner(workload, work / "out", tally)
    info: dict = {"workload": name, "seed": seed}

    if not trace:
        setup_s = []
        while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_S:
            setup_s.append(_timed_setup(workload, work / "inputs", seed))
        setup_peak_mib = _peak_rss_mib()
        rounds = [runner.round()]
        while sum(rounds) + statistics.median(rounds) <= seconds:
            rounds.append(runner.round())
        peak_mib = _peak_rss_mib()
        runner.check_outputs()
        round_s = statistics.median(rounds)
        metrics = {"setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                   "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
                   "round_s": {"value": round_s, "unit": "s"}}
        named, unit = workload.named_metric
        info.update(rounds=len(rounds), round_s=rounds, setup_s=setup_s,
                    setup_peak_rss_mb=setup_peak_mib,
                    named={named: {"value": workload.named_value(round_s), "unit": unit}})
    else:
        with Tracer() as setup_tracer:
            workload.setup(work / "inputs", seed)
        untraced_a = runner.round()
        with Tracer(capture=True) as traced:
            traced_s = runner.round()
        untraced_b = runner.round()
        runner.check_outputs()
        for metric, g, s, tau, got in traced.captured:
            want = reference.dsc_ref(g, s) if metric == "dsc" else reference.nsd_ref(g, s, tau)
            tally.check(got == want, f"traced {metric} = {got!r}, reference {want!r}")
        layers = layer_metrics(setup_tracer, traced)
        layers["trace.overhead_s"] = (traced_s - min(untraced_a, untraced_b), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        spans = WORK / "spans" / f"{name}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.unlink(missing_ok=True)
        setup_tracer.write_spans(spans, "setup")
        traced.write_spans(spans, "round")
        info.update(traced_round_s=traced_s, untraced_round_s=[untraced_a, untraced_b],
                    spans_file=str(spans.relative_to(ROOT)))

    info["errors"] = tally.errors[:20]
    print("info " + json.dumps(info), flush=True)
    return {"correct": not tally.checks_failed, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True,
                   help="scratch directory for inputs and outputs, removed by the caller")
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(args.work))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
