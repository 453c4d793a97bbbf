"""Batch command-line front door.

Subcommands: perturb, eval, gen, train, ablate, preprocess.  The CSVs
embed a schema version and every config key, the model its schema version
and training config, the eval JSON its schema version and tau, the gen
manifest its schema version, suite, grid and seed, and F32G grids neither.
Exit codes: 0 success, 1 usage error or bad value, 2 data/I-O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import signal
import stat
import sys
from dataclasses import MISSING, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import toyseg
from .errors import BoxPerturbError, DimensionMismatch, EmptyDataset, naming
from .geometry import box_from_mask, coefficients_for
from .metrics import dsc, nsd
from .perturb import (PerturbationConfig, PerturbationStats, compute_offsets,
                      sample_perturbed_box)
from .rng import make_rng

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Everything a `--config` file sets: training, its perturbation, evaluation.

    The config keys are the fields of PerturbationConfig, TrainConfig and
    RunConfig that have a plain default; the nested configs use a
    default_factory and are not keys.
    """

    train: toyseg.TrainConfig = field(default_factory=toyseg.TrainConfig)
    tau: float = 2.0
    prompt_frac: float = 0.1

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if not 0.0 <= self.prompt_frac <= 0.4:
            raise ValueError(f"prompt_frac must be in [0, 0.4], got {self.prompt_frac}")

    def values(self) -> dict:
        """Every config key and its value."""
        return {f.name: getattr(obj, f.name)
                for obj in (self.train.perturb, self.train, self)
                for f in fields(obj) if f.default is not MISSING}

    @classmethod
    def from_values(cls, values: dict) -> "RunConfig":
        """Build and validate a config from a subset of the keys; the rest default."""
        def pick(section):
            return {f.name: values[f.name] for f in fields(section) if f.name in values}
        perturb = PerturbationConfig(**pick(PerturbationConfig))
        return cls(train=toyseg.TrainConfig(perturb=perturb, **pick(toyseg.TrainConfig)),
                   **pick(cls))


def _parse_value(text: str, default):
    """Parse text as the type of default: bool (true/false), int or finite float."""
    kind = type(default)
    try:
        value = ({"true": True, "false": False}[text.lower()] if kind is bool
                 else kind(text))
    except (KeyError, ValueError):
        raise ValueError(f"expected {kind.__name__}, got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"expected a finite float, got {text!r}")
    return value


def read_run_config(path=None) -> RunConfig:
    """Parse a UTF-8 (BOM allowed) `key = value` file; unknown and repeated keys are rejected.

    Missing keys take the dataclass defaults; a missing path yields the
    pure defaults.  Each value is checked as its line is read, so an
    error names the line at fault.
    """
    config = RunConfig()
    if path is None:
        return config
    defaults = config.values()
    values = {}
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        lineno = e.object.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}:{lineno}: {e}") from None
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in defaults:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: {key} is already set")
        try:
            values[key] = _parse_value(value.strip(), defaults[key])
            config = RunConfig.from_values(values)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {key}: {e}") from None
    return config


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, config: RunConfig, header, rows, notes=(), end_notes=()):
    """Write a CSV artifact: schema and config comments, notes, header, rows, end notes.

    Floats are written with 17 significant digits (they parse back
    exactly), everything else with str; notes become `# ` comment lines.
    """
    values = config.values()
    with open(path, "w") as f:  # each line as it is made: rows may be a stream
        f.write(f"# schema_version = {SCHEMA_VERSION}\n")
        f.writelines(f"# {key} = {values[key]}\n" for key in sorted(values))
        f.writelines(f"# {note}\n" for note in notes)
        f.write(",".join(header) + "\n")
        f.writelines(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
                     for row in rows)
        f.writelines(f"# {note}\n" for note in end_notes)


def cmd_perturb(args):
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    config = read_run_config(args.config)
    if args.seed is not None:
        config = replace(config, train=replace(config.train, seed=args.seed))
    mask = data_mod.read_mask_pgm(args.mask)
    h, w = mask.shape
    with naming(args.mask):
        box = box_from_mask(mask)
    pcfg = config.train.perturb
    coeffs = coefficients_for(box, w, h, pcfg.theta_floor)
    offsets = compute_offsets(pcfg, coeffs)

    draws = (sample_perturbed_box(box, offsets, w, h, pcfg, make_rng(config.train.seed, i))
             for i in range(args.n))
    end_notes = []
    if args.stats:
        draws = list(draws)  # the summary, an end note, reads every draw before the rows
        stats = PerturbationStats.of(draws)
        end_notes.append(f"stats: mean_width = {_fmt(stats.mean_width)}, "
                         f"mean_height = {_fmt(stats.mean_height)}, "
                         f"mean_aspect = {_fmt(stats.mean_width / stats.mean_height)}")
    rows = ((i, p.box.x_min, p.box.y_min, p.box.x_max, p.box.y_max,
             offsets.eps1, offsets.eps2, offsets.delta1, offsets.delta2, p.resample_count)
            for i, p in enumerate(draws))
    _write_csv(args.out, config,
               "draw,x_min,y_min,x_max,y_max,eps1,eps2,delta1,delta2,resamples".split(","),
               rows, end_notes=end_notes)


def cmd_eval(args):
    if not args.tau >= 0:  # also rejects NaN
        raise ValueError(f"--tau must be >= 0, got {args.tau}")
    gt = data_mod.read_mask_pgm(args.gt)
    pred = data_mod.read_mask_pgm(args.pred)
    if gt.shape != pred.shape:
        (gh, gw), (ph, pw) = gt.shape, pred.shape
        raise DimensionMismatch(
            f"mask sizes differ: {args.gt} is {gw}x{gh}, {args.pred} is {pw}x{ph}")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dsc": dsc(gt, pred),
        "nsd": nsd(gt, pred, args.tau),
        "tau": args.tau if math.isfinite(args.tau) else "inf",
        "gt_pixels": int(np.count_nonzero(gt)),
        "pred_pixels": int(np.count_nonzero(pred)),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def cmd_gen(args):
    samples = data_mod.synthetic_samples(args.n, suite=args.suite, grid=args.grid,
                                         seed=args.seed)
    data_mod.save_dataset(samples, args.out_dir, suite=args.suite,
                          grid=args.grid, seed=args.seed)


def _load_nonempty(data_dir, names) -> data_mod.DatasetSplit:
    """The dataset in data_dir, checked before any fit to hold samples in each named split."""
    split = data_mod.load_dataset(data_dir)
    with naming(data_dir):
        for name in names:
            if not getattr(split, name):
                raise EmptyDataset(f"empty {name} split")
    return split


def cmd_train(args):
    config = read_run_config(args.config)
    split = _load_nonempty(args.data_dir, ("train", "val"))
    model, history = toyseg.train(split, config.train)
    toyseg.save_model(model, args.out, train_config_echo=config.values())
    _write_csv(args.history, config, [f.name for f in fields(toyseg.EpochRecord)],
               [astuple(rec) for rec in history])


# (row name, overrides of the configured perturbation): the 2x2 factorial of
# theta/xi scaling and shrink+expand versus expand-only (eps_shrink = 0) draws.
ABLATION_ROWS = (
    ("baseline", {"scale_by_target": False, "eps_shrink": 0.0}),
    ("+theta_xi", {"scale_by_target": True, "eps_shrink": 0.0}),
    ("+bidirectional", {"scale_by_target": False}),
    ("full", {"scale_by_target": True}),
)


def _fit(inputs, task) -> dict:
    """Train and evaluate one ablation model; return its cells of the CSV.

    inputs is ((standard split, tiny split), config, error threshold) and
    task is (row index, suite index).  A standard-suite model gives the
    DSC and NSD cells of every prompt regime, a tiny-suite model the
    error rate.
    """
    splits, config, error_threshold = inputs
    row, suite = task
    cfg = replace(config.train,
                  perturb=replace(config.train.perturb, **ABLATION_ROWS[row][1]))
    split = splits[suite]
    model, _ = toyseg.train(split, cfg)
    if suite == 1:  # tiny
        res = toyseg.evaluate(model, split.test, tau=config.tau)
        return {"error_rate": float(np.mean([d < error_threshold for d in res.per_image_dsc]))}
    cells = {}
    frac = config.prompt_frac
    for mode, grow in (("standard", 0.0), ("expand", frac), ("shrink", -frac)):
        res = toyseg.evaluate(model, split.test, grow=grow, tau=config.tau)
        cells[f"dsc_{mode}"] = res.dsc_mean
        cells[f"nsd_{mode}"] = res.nsd_mean
    return cells


_worker_inputs = None  # the inputs of _fit, in a pool worker only: set by _start_worker


def _start_worker(inputs):
    global _worker_inputs
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    _worker_inputs = inputs


def _fit_in_worker(task) -> dict:
    return _fit(_worker_inputs, task)


def _fit_on_pool(inputs, tasks, workers: int) -> list[dict]:
    """_fit over tasks on `workers` forked processes; the results in task order.

    Fork, not spawn or forkserver: a spawned worker starts a new
    interpreter that imports numpy and the caller's __main__ again on
    every call, which cost most of the gain, and spawn and forkserver
    leave a resource_tracker process (and forkserver its server) until
    the parent exits.  Fork is safe here because the process forks with
    one thread: the one other thread after `import numpy`, OpenBLAS's
    idle worker, is stopped by OpenBLAS's own pre-fork handler, and the
    pool starts its threads only after forking its workers.  The inputs
    reach the workers through fork, not pickled per task.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(inputs,))
    try:
        return list(pool.map(_fit_in_worker, tasks))
    finally:  # also on an error or Ctrl-C: drop the fits not begun, wait for the rest
        pool.shutdown(cancel_futures=True)


def run_ablation(standard_split, tiny_split, config: RunConfig,
                 error_threshold: float) -> list[dict]:
    """Train one model per ablation row and suite, and evaluate all prompt regimes.

    Every row shares the dataset and seeds, so rows differ only in the
    train-time perturbation.  The eight fits run on one forked process
    per usable CPU, up to eight, or in this process when only one CPU is
    usable; each draws from its own keyed streams, so the rows are the
    same at any process count.
    """
    inputs = ((standard_split, tiny_split), config, error_threshold)
    tasks = [(row, suite) for row in range(len(ABLATION_ROWS)) for suite in (0, 1)]
    workers = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1,
                  len(tasks))
    cells = (_fit_on_pool(inputs, tasks, workers) if workers > 1
             else list(map(functools.partial(_fit, inputs), tasks)))
    pairs = iter(cells)  # each row's standard cells, then its tiny cells
    return [{"config": row_name, **standard, **tiny,
             "n_standard_test": len(standard_split.test), "n_tiny_test": len(tiny_split.test)}
            for (row_name, _), standard, tiny in zip(ABLATION_ROWS, pairs, pairs)]


def cmd_ablate(args):
    if not 0.0 < args.error_dsc_threshold <= 1.0:  # also rejects NaN
        raise ValueError(
            f"--error-dsc-threshold must be in (0, 1], got {args.error_dsc_threshold}")
    config = read_run_config(args.config)
    splits = [_load_nonempty(Path(args.data_dir) / suite, data_mod.SPLITS)
              for suite in ("standard", "tiny")]
    rows = run_ablation(*splits, config, args.error_dsc_threshold)
    _write_csv(args.out, config, rows[0].keys(), [row.values() for row in rows], notes=[
        f"error_rate criterion: per-image DSC < {args.error_dsc_threshold} "
        f"on the tiny suite (stand-in definition)",
        f"expand/shrink prompt regimes move each edge by {config.prompt_frac} "
        f"of the side length (stand-in value)"])


def cmd_preprocess(args):
    raw = data_mod.read_f32_grid(args.infile)
    out = data_mod.window_normalize(raw, args.window[0], args.window[1])
    if args.resize is not None:
        out = data_mod.resample_bilinear(out, args.resize[0], args.resize[1])
    data_mod.write_f32_grid(args.out, out)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, as every failure; the usage text is under --help
        sub = self.prog.partition(" ")[2]  # "perturb" of "boxperturb perturb"; "" at the top
        print(f"boxperturb: {sub + ': ' if sub else ''}{message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every `main` call.

    Parsing keeps no state in the parser: each call fills a new namespace.
    """
    parser = _Parser(prog="boxperturb",
                     description="Adaptive bounding-box perturbation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perturb", help="sample perturbed prompt boxes to CSV")
    p.add_argument("--mask", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_perturb, outputs=("out",))

    p = sub.add_parser("eval", help="DSC/NSD of a prediction vs ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--tau", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval, outputs=("out",))

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--suite", choices=("standard", "tiny"), default="standard")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen, outputs=())

    p = sub.add_parser("train", help="train the toy segmenter")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--history", required=True)
    p.set_defaults(func=cmd_train, outputs=("out", "history"))

    p = sub.add_parser("ablate", help="run the ablation table")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--error-dsc-threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_ablate, outputs=("out",))

    p = sub.add_parser("preprocess", help="window/normalize and resample a grid")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--resize", type=int, nargs=2, default=None,
                   metavar=("W", "H"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess, outputs=("out",))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    temps = {}  # each output's hidden sibling, which the command writes -> the output
    named = {}  # each output's real directory and name -> its flag, with two or more outputs
    try:
        for dest in args.outputs:  # fail before any work, not after it
            path = Path(getattr(args, dest))
            if not path.parent.is_dir():
                raise FileNotFoundError(f"output directory {path.parent} does not exist")
            try:
                mode = path.stat().st_mode
            except FileNotFoundError:
                mode = stat.S_IFREG  # a new file
            if stat.S_ISDIR(mode):
                raise IsADirectoryError(f"output {path} is a directory")
            if not stat.S_ISREG(mode):  # a FIFO or a device, such as /dev/null: write in place
                continue
            if len(args.outputs) > 1:  # the later rename would replace the earlier output
                real = path.parent.resolve() / path.name
                if real in named:
                    raise ValueError(f"--{dest} names the same file as --{named[real]}")
                named[real] = dest
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            setattr(args, dest, str(temp))
            temps[temp] = path
        args.func(args)
        for temp, path in list(temps.items()):  # only once every output is written
            os.replace(temp, path)
            del temps[temp]
        return 0
    except (BoxPerturbError, OSError, RuntimeError) as e:  # before its base, ValueError
        message, code = f"{type(e).__name__}: {e}", 2
    except MemoryError as e:  # numpy raises a private subclass; name the public class
        message, code = f"MemoryError: {e}", 2
    except ValueError as e:  # a bad flag, config value, size or other value
        message, code = str(e), 1
    finally:  # after a failure or an interrupt, each output with a temporary is as it was
        for temp in temps:
            temp.unlink(missing_ok=True)
    print(f"boxperturb: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
