"""Every console case as one row: its inputs, argv, exit code, stderr and outputs.

A row runs in an empty directory and names its files relative to it, so
its one stderr line reads the same wherever it runs.  tests/test_cli.py
runs every row in process through `boxperturb.cli.main`.  Run as a
script, this module runs every row through the `boxperturb` executable
on PATH, each in a fresh temporary directory:

    python tests/console_cases.py

It prints one line per row, its id and `pass`, or `FAIL` and what
differed, and exits 1 if a row fails or there is no `boxperturb` on PATH.

The usage-error rows pin argparse's wording as Python 3.10 and 3.11
print it, the versions CI runs.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from boxperturb import data, toyseg
from boxperturb.cli import read_run_config


@dataclass(frozen=True)
class Case:
    id: str
    argv: str  # split on blanks
    code: int
    err: str = ""  # the one stderr line, after "boxperturb: "; "" for an empty stderr
    setup: tuple = ()  # steps f(root) that make the inputs in the empty directory root
    absent: tuple = ()  # outputs that must not exist afterwards
    same: dict = field(default_factory=dict)  # output -> the bytes it must hold afterwards
    check: Callable | None = None  # f(root) that asserts on a file the run wrote


def verify(case: Case, root: Path, code: int, stderr: str) -> list[str]:
    """How a run of case in root differed from the row; empty when it did not."""
    want = f"boxperturb: {case.err}\n" if case.err else ""
    problems = [f"exit {code}, want {case.code}"] if code != case.code else []
    if stderr != want:
        problems.append(f"stderr {stderr!r}, want {want!r}")
    problems += [f"{name} exists" for name in case.absent if (root / name).exists()]
    problems += [f"{temp.relative_to(root)} is left behind" for temp in root.rglob(".*.tmp")]
    problems += [f"{name} does not hold {content[:40]!r}..." for name, content in case.same.items()
                 if not (root / name).is_file() or (root / name).read_bytes() != content]
    if case.check is not None and not problems:
        try:
            case.check(root)
        except Exception as e:  # a check that cannot read its file fails the row, not the run
            problems.append(f"{type(e).__name__}: {e}")
    return problems


# --- Set-up steps ---

def gen(path="ds", suite="standard", grid=32, seed=0):
    """A step that writes at path the 10-image dataset `gen` writes for suite, grid and seed."""
    return lambda root: data.save_dataset(data.gen_synthetic(10, suite, grid=grid, seed=seed),
                                          root / path, suite=suite, grid=grid, seed=seed)


def write(name: str, content: bytes):
    """A step that writes content to the file name, making its directory, replacing any file."""
    def step(root: Path):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(content)
    return step


def directory(name: str):
    """A step that makes the directory name."""
    return lambda root: (root / name).mkdir()


def mask(name: str, shape, rows=slice(0), cols=slice(0)):
    """A step that writes name as a PGM mask of the given shape, true on [rows, cols]."""
    pixels = np.zeros(shape, dtype=bool)
    pixels[rows, cols] = True
    return lambda root: data.write_mask_pgm(root / name, pixels)


def splits(edit, manifest="ds/manifest.json"):
    """A step that lets edit change the split lists of manifest in place."""
    def step(root: Path):
        path = root / manifest
        doc = json.loads(path.read_text())
        edit(doc["splits"])
        path.write_text(json.dumps(doc))
    return step


def f32g(w: int, h: int, *pixels: float) -> bytes:
    """An F32G file of a w x h grid: the given first pixels, then zeros."""
    return (b"F32G" + struct.pack(f"<III{len(pixels)}f", w, h, 0, *pixels)
            + bytes(4 * (w * h - len(pixels))))


# --- Checks of written files ---

def every(*checks):
    """A check that makes each of checks in turn."""
    def check(root: Path):
        for each in checks:
            each(root)
    return check


def has_line(name: str, line: str):
    """A check that the file name holds line."""
    def check(root: Path):
        assert line in (root / name).read_text().splitlines(), f"{name} has no line {line!r}"
    return check


def holds(name: str, **want):
    """A check that the JSON object in the file name has each key of want, with its value."""
    def check(root: Path):
        doc = json.loads((root / name).read_text())
        got = {key: doc.get(key) for key in want}
        assert got == want, f"{name} has {got}, want {want}"
    return check


def csv_rows(path: Path) -> list[list[str]]:
    """The header and rows of a CSV artifact, split on commas, without its comment lines."""
    return [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]


def draws(n: int, box=None, offsets=None):
    """A check that out.csv holds n draws, each with box and offsets when they are given."""
    def check(root: Path):
        header, *rows = csv_rows(root / "out.csv")
        assert header[:5] == ["draw", "x_min", "y_min", "x_max", "y_max"], header
        assert len(rows) == n, f"{len(rows)} draws"
        for row in rows:
            assert box is None or ([float(x) for x in row[1:5]], row[-1]) == (box, "0"), row
            assert offsets is None or [float(x) for x in row[5:9]] == offsets, row
    return check


def stats_line(root: Path):
    lines = (root / "out.csv").read_text().splitlines()
    boxes = np.array([[float(x) for x in row[1:5]] for row in csv_rows(root / "out.csv")[1:]])
    widths, heights = boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]
    match = re.fullmatch(r"# stats: mean_width = (\S+), mean_height = (\S+), "
                         r"mean_aspect = (\S+)", lines[-1])
    assert match, lines[-1]
    assert [float(x) for x in match.groups()] == [np.mean(widths), np.mean(heights),
                                                  np.mean(widths) / np.mean(heights)]


def grid(check_grid):
    """A check that check_grid(grid) holds for the grid preprocess wrote to out.f32g."""
    def check(root: Path):
        out = data.read_f32_grid(root / "out.f32g")
        assert check_grid(out), out
    return check


def gen_layout(root: Path):
    manifest = json.loads((root / "ds" / "manifest.json").read_text())
    counts = [len(manifest["samples"])] + [len(manifest["splits"][name])
                                           for name in ("train", "val", "test")]
    files = sorted(path.name for path in (root / "ds").iterdir())
    want = sorted([f"{kind}_{i:04d}.{ext}" for i in range(10)
                   for kind, ext in (("img", "f32g"), ("mask", "pgm"))] + ["manifest.json"])
    assert counts == [10, 8, 1, 1] and files == want, f"counts {counts}, files {files}"


def six_finite_weights(root: Path):
    weights = json.loads((root / "model.json").read_text())["weights"]
    assert len(weights) == 6 and all(map(math.isfinite, weights)), f"weights {weights}"


def history_round_trips(root: Path):
    _, history = toyseg.train(data.load_dataset(root / "ds"),
                              read_run_config(root / "run.cfg").train)
    header, *rows = csv_rows(root / "history.csv")
    assert header == ["epoch", "train_loss", "val_loss", "lr"], header
    assert [[int(row[0])] + [float(x) for x in row[1:]] for row in rows] == [
        [rec.epoch, rec.train_loss, rec.val_loss, rec.lr] for rec in history]


def ablation_schema(root: Path):
    lines = (root / "ablation.csv").read_text().splitlines()
    assert any(line.startswith("# schema_version") for line in lines)
    header, *rows = csv_rows(root / "ablation.csv")
    assert header[0] == "config" and [row[0] for row in rows] == [
        "baseline", "+theta_xi", "+bidirectional", "full"], (header, rows)
    for row in rows:
        values = dict(zip(header, row))
        for key in ("dsc_standard", "nsd_standard", "dsc_expand", "nsd_expand",
                    "dsc_shrink", "nsd_shrink", "error_rate"):
            assert 0.0 <= float(values[key]) <= 1.0, (key, values[key])


# --- The rows ---

ONE_EPOCH = write("one.cfg", b"epochs = 1\n")
DS = (gen(), ONE_EPOCH)
SUITES = (gen("ds/standard", "standard", 32, 4), gen("ds/tiny", "tiny", 64, 4))
MASK = mask("mask.pgm", (32, 32), slice(10, 20), slice(8, 24))  # box (8, 10, 24, 20)
EVAL = "eval --gt ds/mask_0000.pgm --pred ds/mask_0001.pgm"
EVAL_JSON = (b'{\n  "schema_version": 1,\n  "dsc": 0.0,\n  "nsd": 0.0,\n  "tau": 2.0,\n'
             b'  "gt_pixels": 140,\n  "pred_pixels": 184\n}\n')  # EVAL at --tau 2
SINGLETONS = (mask("g.pgm", (6, 6), 0, 0), mask("s.pgm", (6, 6), 0, 3))  # 3 pixels apart
TRAIN = "train --data-dir ds --config {} --out model.json --history history.csv"
NO_MODEL = ("model.json", "history.csv")
BAD_HEADER = b"P5\n32 x\n255"
KEPT = b"written before\n"
EMPTY_MASK = write("empty.pgm", b"P5\n8 8\n255\n" + bytes(64))
GRID = write("in.f32g", f32g(2, 2))
ABLATE = "ablate --data-dir ds --config one.cfg --out ablation.csv"
PREPROCESS = "preprocess --in in.f32g --window 0 1 --out out.f32g"
NAN_THEN_HALF = grid(lambda out: out.shape == (1, 2) and np.isnan(out[0, 0]) and out[0, 1] == 0.5)


# The damaged manifests of the train-manifest-<id> rows: (id, manifest, error after its path).
MANIFESTS = [
    ("not-json", "{bad",
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("no-splits", '{"samples": []}', "needs a 'samples' list and a 'splits' object"),
    ("a-list", "[]", "needs a 'samples' list and a 'splits' object"),
    ("splits-a-list", '{"samples": [], "splits": []}',
     "needs a 'samples' list and a 'splits' object"),
    ("unknown-sample", '{"samples": [], "splits": {"train": ["x"]}}',
     "split 'train' names unknown sample 'x'"),
    ("sample-without-mask",
     '{"samples": [{"id": "x", "image": "x.f32g"}], "splits": {"train": ["x"]}}',
     "each sample needs a string 'id', 'image' and 'mask'"),
    ("id-not-a-string", '{"samples": [{"id": [1], "image": "a", "mask": "b"}], "splits": {}}',
     "each sample needs a string 'id', 'image' and 'mask'"),
    ("split-names-a-list", '{"samples": [], "splits": {"train": [["x"]]}}',
     "split 'train' names unknown sample ['x']"),
]


def train_case(case_id, setup, err):
    """A train row on ds, damaged by setup, that must exit 2 with err and write nothing."""
    return Case(case_id, TRAIN.format("one.cfg"), 2, err, (*DS, *setup), NO_MODEL)


def ablate_case(case_id, setup, err):
    """An ablate row on ds/standard and ds/tiny, damaged by setup, that must exit 2 with err."""
    return Case(case_id, ABLATE, 2, err, (ONE_EPOCH, *setup), ("ablation.csv",))


CASES = [
    Case("usage-help", "perturb --help", 0),
    Case("usage-missing-flags", "perturb", 1,
         "perturb: the following arguments are required: --mask, --out"),
    Case("usage-bad-type", "eval --gt a.pgm --pred b.pgm --tau x --out bad.json", 1,
         "eval: argument --tau: invalid float value: 'x'", absent=("bad.json",)),
    Case("usage-unknown-command", "no-such-command", 1,
         "argument command: invalid choice: 'no-such-command' "
         "(choose from 'perturb', 'eval', 'gen', 'train', 'ablate', 'preprocess')"),
    Case("usage-unrecognized-argument", "perturb --mask m.pgm --out bad.csv --bogus 1", 1,
         "unrecognized arguments: --bogus 1", absent=("bad.csv",)),
    Case("gen", "gen --suite standard --n 10 --grid 32 --seed 0 --out-dir ds", 0,
         check=gen_layout),
    *(Case(f"gen-{case_id}", f"gen {flags} --out-dir out", 1, err, absent=("out",))
      for case_id, flags, err in [
          ("n", "--n 5", "n must be >= 10 so every split is nonempty, got 5"),
          ("tiny-grid", "--suite tiny --grid 48 --n 10",
           "grid must be >= 60 for the tiny suite, got 48"),
          ("negative-grid", "--grid -5 --n 10",
           "grid must be >= 13 for the standard suite, got -5"),
          ("standard-grid", "--suite standard --grid 6 --n 10",
           "grid must be >= 13 for the standard suite, got 6"),
          ("negative-seed", "--seed -1 --n 10", "seed must be >= 0, got -1")]),
    Case("eval", f"{EVAL} --tau 2 --out eval.json", 0, setup=DS, same={"eval.json": EVAL_JSON}),
    Case("eval-rewrites-a-longer-output", f"{EVAL} --tau 2 --out over.json", 0,
         setup=(*DS, write("over.json", b"longer than the result " * 200)),
         same={"over.json": EVAL_JSON}),
    Case("eval-identical-masks", "eval --gt mask.pgm --pred mask.pgm --out eval.json", 0,
         setup=(MASK,), check=holds("eval.json", schema_version=1, dsc=1.0, nsd=1.0,
                                    gt_pixels=160, pred_pixels=160)),
    Case("eval-singletons-within-tau", "eval --gt g.pgm --pred s.pgm --tau 3 --out eval.json", 0,
         setup=SINGLETONS, check=holds("eval.json", dsc=0.0, nsd=1.0)),
    Case("eval-singletons-beyond-tau", "eval --gt g.pgm --pred s.pgm --tau 2.5 --out eval.json",
         0, setup=SINGLETONS, check=holds("eval.json", dsc=0.0, nsd=0.0)),
    Case("eval-tau-inf", f"{EVAL} --tau inf --out inf.json", 0, setup=DS,
         check=holds("inf.json", nsd=1.0, tau="inf")),
    Case("eval-tau-1e9", f"{EVAL} --tau 1e9 --out far.json", 0, setup=DS,
         check=holds("far.json", nsd=1.0, tau=1e9)),
    *(Case(f"eval-tau={tau}", f"{EVAL} --tau={tau} --out bad.json", 1,
           f"--tau must be >= 0, got {float(tau)}", DS, ("bad.json",))
      for tau in ("-1", "-0.5", "nan", "-inf")),
    Case("eval-failure-keeps-output", f"{EVAL} --tau -1 --out keep.json", 1,
         "--tau must be >= 0, got -1.0", (*DS, write("keep.json", EVAL_JSON)),
         same={"keep.json": EVAL_JSON}),
    Case("eval-bad-gt-header", "eval --gt bad.pgm --pred ds/mask_0001.pgm --out bad.json", 2,
         "MalformedFile: bad.pgm: non-numeric PGM header token b'x'",
         (*DS, write("bad.pgm", BAD_HEADER)), ("bad.json",)),
    Case("eval-bad-pred-header", "eval --gt ds/mask_0000.pgm --pred bad.pgm --out bad.json", 2,
         "MalformedFile: bad.pgm: non-numeric PGM header token b'x'",
         (*DS, write("bad.pgm", BAD_HEADER)), ("bad.json",)),
    Case("eval-pixel-above-maxval", "eval --gt over.pgm --pred ds/mask_0001.pgm --out out.json",
         2, "MalformedFile: over.pgm: pixel value outside 0..maxval",
         (*DS, write("over.pgm", b"P5\n2 1\n200\n\x00\xc9")), ("out.json",)),
    Case("eval-dimension-mismatch", "eval --gt mask.pgm --pred other.pgm --out eval.json", 2,
         "DimensionMismatch: mask sizes differ: mask.pgm is 32x32, other.pgm is 8x6",
         (MASK, mask("other.pgm", (6, 8))), ("eval.json",)),
    Case("eval-missing-output-dir", f"{EVAL} --out nodir/eval.json", 2,
         "FileNotFoundError: output directory nodir does not exist", DS, ("nodir",)),
    Case("perturb-zero-config", "perturb --mask mask.pgm --config zero.cfg --n 5 --seed 1 "
         "--out out.csv", 0, setup=(MASK, write("zero.cfg", b"eps_shrink = 0\ndelta_expand = 0\n")),
         check=draws(5, box=[8.0, 10.0, 24.0, 20.0])),
    Case("perturb-raw-offsets", "perturb --mask mask.pgm --config raw.cfg --n 3 --out out.csv", 0,
         setup=(MASK, write("raw.cfg", b"scale_by_target = false\n")),
         check=every(draws(3, offsets=[-20.0, -20.0, 20.0, 20.0]),
                     has_line("out.csv", "# scale_by_target = False"))),
    Case("perturb-config-with-bom", "perturb --mask mask.pgm --config bom.cfg --n 2 --out out.csv",
         0, setup=(MASK, write("bom.cfg", b"\xef\xbb\xbfepochs = 1\n")),
         check=every(draws(2), has_line("out.csv", "# epochs = 1"))),
    Case("perturb-stats", "perturb --mask mask.pgm --n 40 --seed 8 --stats --out out.csv", 0,
         setup=(MASK,), check=every(draws(40), stats_line)),
    *(Case(f"perturb-n={n}", f"perturb --mask mask.pgm --n {n} --stats --out out.csv", 1,
           f"--n must be >= 1, got {n}", (MASK,), ("out.csv",)) for n in (0, -3)),
    Case("perturb-negative-seed", "perturb --mask missing.pgm --seed -2 --out out.csv", 1,
         "--seed must be >= 0, got -2", absent=("out.csv",)),
    Case("perturb-empty-mask", "perturb --mask empty.pgm --out draws.csv", 2,
         "EmptyMask: empty.pgm: cannot derive a box from an empty mask", (EMPTY_MASK,),
         ("draws.csv",)),
    Case("perturb-failure-keeps-output", "perturb --mask empty.pgm --out keep.csv", 2,
         "EmptyMask: empty.pgm: cannot derive a box from an empty mask",
         (EMPTY_MASK, write("keep.csv", KEPT)), same={"keep.csv": KEPT}),
    Case("perturb-bad-mask-header", "perturb --mask bad.pgm --out draws.csv", 2,
         "MalformedFile: bad.pgm: non-numeric PGM header token b'x'",
         (write("bad.pgm", BAD_HEADER),), ("draws.csv",)),
    Case("preprocess-window-ends", "preprocess --in in.f32g --window -360 440 --out out.f32g", 0,
         setup=(write("in.f32g", f32g(2, 2, -360, 440, 40, 1000)),),
         check=grid(lambda out: out.tolist() == [[0.0, 1.0], [0.5, 1.0]])),
    Case("preprocess-window-and-resize",
         "preprocess --in in.f32g --window -1000 400 --resize 8 8 --out out.f32g", 0,
         setup=(write("in.f32g", f32g(4, 4, *np.linspace(-1200, 600, 16))),),
         check=grid(lambda out: out.shape == (8, 8) and 0 <= out.min() <= out.max() <= 1)),
    Case("preprocess-quiet-nan", PREPROCESS, 0, check=NAN_THEN_HALF,
         setup=(write("in.f32g", f32g(2, 1, math.nan, 0.5)),)),
    Case("preprocess-signaling-nan", PREPROCESS, 0, check=NAN_THEN_HALF, setup=(
        write("in.f32g", f32g(2, 1)[:16] + struct.pack("<If", 0x7fa00001, 0.5)),)),
    Case("preprocess-resize-zero", f"{PREPROCESS} --resize 0 5", 1,
         "output dimensions must be >= 1", (GRID,), ("out.f32g",)),
    Case("preprocess-truncated-grid", "preprocess --in cut.f32g --window 0 1 --out out.f32g", 2,
         "MalformedFile: cut.f32g: payload is 24 bytes, header implies 4096",
         (write("cut.f32g", f32g(32, 32)[:40]),), ("out.f32g",)),
    Case("preprocess-resize-empty-grid",
         "preprocess --in zero.f32g --window 0 1 --resize 4 4 --out out.f32g", 2,
         "MalformedFile: zero.f32g: invalid F32G dimensions 0x5",
         (write("zero.f32g", f32g(0, 5)),), ("out.f32g",)),
    Case("preprocess-infinite-window", "preprocess --in in.f32g --window 0 inf --out out.f32g",
         2, "InvalidWindow: window requires finite w_lo < w_hi, got (0.0, inf)", (GRID,),
         ("out.f32g",)),
    Case("preprocess-reversed-window",
         "preprocess --in in.f32g --window 440 -360 --out out.f32g", 2,
         "InvalidWindow: window requires finite w_lo < w_hi, got (440.0, -360.0)", (GRID,),
         ("out.f32g",)),
    Case("train", TRAIN.format("one.cfg"), 0, setup=DS, check=six_finite_weights),
    Case("train-history-round-trips", TRAIN.format("run.cfg"), 0, check=history_round_trips,
         setup=(gen(seed=6), write(
             "run.cfg", b"epochs = 6\nlr = 0.3\nscheduler_patience = 1\nseed = 2\n"))),
    Case("train-missing-dataset", "train --data-dir nope --out model.json --history history.csv",
         2, "EmptyDataset: no manifest.json in nope", absent=NO_MODEL),
    Case("train-history-is-a-directory",
         "train --data-dir ds --config one.cfg --out m.json --history hdir", 2,
         "IsADirectoryError: output hdir is a directory",
         (*DS, write("m.json", KEPT), directory("hdir")), same={"m.json": KEPT}),
    Case("train-out-is-history",
         "train --data-dir ds --config one.cfg --out m.json --history sub/../m.json", 1,
         "--history names the same file as --out", (*DS, directory("sub")), ("m.json",)),
    Case("train-missing-output-dir",
         "train --data-dir ds --config one.cfg --out model.json --history nodir/history.csv", 2,
         "FileNotFoundError: output directory nodir does not exist", DS, ("model.json", "nodir")),
    train_case("train-mask-size-mismatch",
               [write("ds/mask_0000.pgm", b"P5\n2 2\n255\n\xff\xff\xff\xff")],
               "DimensionMismatch: ds/mask_0000.pgm: image is (32, 32), mask (2, 2)"),
    train_case("train-empty-mask", [write("ds/mask_0003.pgm", b"P5\n32 32\n255\n" + bytes(1024))],
               "EmptyMask: ds/mask_0003.pgm: cannot derive a box from an empty mask"),
    train_case("train-bad-mask-header", [write("ds/mask_0002.pgm", BAD_HEADER)],
               "MalformedFile: ds/mask_0002.pgm: non-numeric PGM header token b'x'"),
    train_case("train-truncated-image", [write("ds/img_0003.f32g", f32g(32, 32)[:100])],
               "MalformedFile: ds/img_0003.f32g: payload is 84 bytes, header implies 4096"),
    train_case("train-inf-in-train-image", [write("ds/img_0000.f32g", f32g(32, 32, math.inf))],
               "DomainError: ds/img_0000.f32g: image holds a non-finite pixel"),
    train_case("train-nan-in-val-image", [write("ds/img_0008.f32g", f32g(32, 32, math.nan))],
               "DomainError: ds/img_0008.f32g: image holds a non-finite pixel"),
    train_case("train-test-sample-in-train", [splits(lambda s: s["test"].append(s["train"][0]))],
               "MalformedFile: ds/manifest.json: "
               "split 'test' names sample '0000', already in split 'train'"),
    train_case("train-empty-train-split", [splits(lambda s: s["train"].clear())],
               "EmptyDataset: ds: empty train split"),
    train_case("train-empty-val-split", [splits(lambda s: s["val"].clear())],
               "EmptyDataset: ds: empty val split"),
    *(train_case(f"train-manifest-{case_id}", [write("ds/manifest.json", manifest.encode())],
                 f"MalformedFile: ds/manifest.json: {err}") for case_id, manifest, err in MANIFESTS),
    Case("train-config-sets-seed-twice", TRAIN.format("twice.cfg"), 1,
         "twice.cfg:2: seed is already set", (*DS, write("twice.cfg", b"seed = 1\nseed = 2\n")),
         NO_MODEL),
    Case("train-config-not-utf-8", TRAIN.format("bad.cfg"), 1,
         "bad.cfg:2: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte",
         (*DS, write("bad.cfg", b"epochs = 1\nseed = \xff\n")), NO_MODEL),
    Case("train-config-bom-not-utf-8", TRAIN.format("bad.cfg"), 1,
         "bad.cfg:2: 'utf-8' codec can't decode byte 0xff in position 21: invalid start byte",
         (*DS, write("bad.cfg", b"\xef\xbb\xbfepochs = 1\nseed = \xff\n")), NO_MODEL),
    # The config is read before the (missing) dataset.
    *(Case(f"train-config-{case_id}",
           "train --data-dir nowhere --config bad.cfg --out model.json --history history.csv", 1,
           f"bad.cfg:{err}", (write("bad.cfg", text.encode()),), NO_MODEL)
      for case_id, text, err in [
          ("unknown-key", "bogus_key = 1\n", "1: unknown config key 'bogus_key'"),
          ("perturber", "perturber = bogus\n", "1: unknown config key 'perturber'"),
          ("no-equals", "epochs 3\n", "1: expected `key = value`"),
          ("float-seed", "seed = 1.5\n", "1: seed: expected int, got '1.5'"),
          ("zero-epochs", "lr = 0.5\nepochs = 0\n", "2: epochs: epochs must be >= 1"),
          ("positive-eps-shrink", "eps_shrink = 5\n",
           "1: eps_shrink: eps_shrink must be <= 0 and delta_expand >= 0"),
          ("non-bool", "# bools\nscale_by_target = yes\n",
           "2: scale_by_target: expected bool, got 'yes'"),
          ("prompt-frac-range", "prompt_frac = 0.5\n",
           "1: prompt_frac: prompt_frac must be in [0, 0.4], got 0.5"),
          ("non-finite", "delta_expand = nan\n",
           "1: delta_expand: expected a finite float, got 'nan'"),
          ("negative-lam", "lam = -1\n", "1: lam: lam must be >= 0"),
          ("negative-lr", "lr = -0.5\n", "1: lr: lr must be > 0"),
          ("zero-lr", "epochs = 2\nlr = 0\n", "2: lr: lr must be > 0"),
          ("negative-min-lr", "min_lr = -1\n", "1: min_lr: min_lr must be >= 0"),
          ("negative-seed", "seed = -1\n", "1: seed: seed must be >= 0")]),
    Case("ablate-schema", "ablate --data-dir ds --config two.cfg --out ablation.csv", 0,
         setup=(gen("ds/standard", "standard", 48, 4), gen("ds/tiny", "tiny", 64, 5),
                write("two.cfg", b"epochs = 2\n")),
         check=ablation_schema),
    # Checked before any data is read: there is no data directory.
    *(Case(f"ablate-error-dsc-threshold={threshold}",
           f"ablate --data-dir nowhere --out ablation.csv --error-dsc-threshold {threshold}", 1,
           f"--error-dsc-threshold must be in (0, 1], got {float(threshold)}",
           absent=("ablation.csv",)) for threshold in ("nan", "-1", "2", "0")),
    # The standard suite is loaded first, so it is the one named when both are missing.
    Case("ablate-missing-suite-keeps-output", "ablate --data-dir nowhere --out keep.csv", 2,
         "EmptyDataset: no manifest.json in nowhere/standard", (write("keep.csv", KEPT),),
         same={"keep.csv": KEPT}),
    *(ablate_case(f"ablate-missing-{missing}", [gen(f"ds/{present}", present, 64, 4)],
                  f"EmptyDataset: no manifest.json in ds/{missing}")
      for present, missing in (("standard", "tiny"), ("tiny", "standard"))),
    *(ablate_case(f"ablate-empty-{name}-test-split",
                  [*SUITES, splits(lambda s: s["test"].clear(), f"ds/{name}/manifest.json")],
                  f"EmptyDataset: ds/{name}: empty test split") for name in ("standard", "tiny")),
    ablate_case("ablate-test-sample-in-train",
                [*SUITES, splits(lambda s: s["test"].append(s["train"][0]),
                                 "ds/tiny/manifest.json")],
                "MalformedFile: ds/tiny/manifest.json: "
                "split 'test' names sample '0000', already in split 'train'"),
    Case("ablate-missing-output-dir", "ablate --data-dir ds --out nodir/ablation.csv", 2,
         "FileNotFoundError: output directory nodir does not exist", SUITES, ("nodir",)),
]


def run_installed() -> int:
    """Run every row through the `boxperturb` on PATH; 1 if one fails or there is none."""
    exe = shutil.which("boxperturb")
    if exe is None:
        print("console_cases: no boxperturb executable on PATH", file=sys.stderr)
        return 1
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for step in case.setup:
                step(root)
            run = subprocess.run([exe, *case.argv.split()], cwd=root, capture_output=True,
                                 text=True)
            problems = verify(case, root, run.returncode, run.stderr)
        print(f"{case.id}: {'FAIL: ' + '; '.join(problems) if problems else 'pass'}", flush=True)
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_installed())
