"""Every console case as one row: its inputs, argv, exit code, stderr and outputs.

A row runs in an empty directory and names its files relative to it, so
its one stderr line reads the same wherever it runs.  tests/test_cli.py
runs every row in process through `boxperturb.cli.main`.  Run as a
script, this module runs every row through the `boxperturb` executable
on PATH, each in a fresh temporary directory:

    python tests/console_cases.py

It prints one line per row, its id and `pass`, or `FAIL` and what
differed, and exits 1 if a row fails or there is no `boxperturb` on PATH.
"""

from __future__ import annotations

import json
import math
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from boxperturb import data


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
    problems += [f"{name} does not hold {content[:40]!r}..." for name, content in case.same.items()
                 if not (root / name).is_file() or (root / name).read_bytes() != content]
    if case.check is not None and not problems:
        try:
            case.check(root)
        except Exception as e:  # a check that cannot read its file fails the row, not the run
            problems.append(f"{type(e).__name__}: {e}")
    return problems


# --- Set-up steps ---

def dataset(root: Path):
    """ds: the 10-image 32x32 standard dataset that `gen --seed 0` writes."""
    data.save_dataset(data.gen_synthetic(10, "standard", grid=32, seed=0), root / "ds",
                      suite="standard", grid=32, seed=0)


def suites(root: Path):
    """ds/standard (32x32) and ds/tiny (64x64), the two datasets `ablate` reads."""
    for suite, grid in (("standard", 32), ("tiny", 64)):
        data.save_dataset(data.gen_synthetic(10, suite, grid=grid, seed=4), root / "ds" / suite,
                          suite=suite, grid=grid, seed=4)


def write(name: str, content: bytes):
    """A step that writes content to the file name, replacing any file there."""
    return lambda root: (root / name).write_bytes(content)


def splits(edit):
    """A step that lets edit change the split lists of ds/manifest.json in place."""
    def step(root: Path):
        path = root / "ds" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest["splits"])
        path.write_text(json.dumps(manifest))
    return step


def f32g(w: int, h: int, *pixels: float) -> bytes:
    """An F32G file of a w x h grid: the given first pixels, then zeros."""
    return (b"F32G" + struct.pack(f"<III{len(pixels)}f", w, h, 0, *pixels)
            + bytes(4 * (w * h - len(pixels))))


# --- Checks of written files ---

def holds(name: str, **want):
    """A check that the JSON object in the file name has each key of want, with its value."""
    def check(root: Path):
        doc = json.loads((root / name).read_text())
        got = {key: doc.get(key) for key in want}
        assert got == want, f"{name} has {got}, want {want}"
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


# --- The rows ---

DS = (dataset, write("one.cfg", b"epochs = 1\n"))
EVAL = "eval --gt ds/mask_0000.pgm --pred ds/mask_0001.pgm"
EVAL_JSON = (b'{\n  "schema_version": 1,\n  "dsc": 0.0,\n  "nsd": 0.0,\n  "tau": 2.0,\n'
             b'  "gt_pixels": 140,\n  "pred_pixels": 184\n}\n')  # EVAL at --tau 2
TRAIN = "train --data-dir ds --config {} --out model.json --history history.csv"
NO_MODEL = ("model.json", "history.csv")
BAD_HEADER = b"P5\n32 x\n255"
KEPT = b"written before\n"
EMPTY_MASK = write("empty.pgm", b"P5\n8 8\n255\n" + bytes(64))
GRID = write("in.f32g", f32g(2, 2))


def train_case(case_id, setup, err):
    """A train row on ds, damaged by setup, that must exit 2 with err and write nothing."""
    return Case(case_id, TRAIN.format("one.cfg"), 2, err, (*DS, *setup), NO_MODEL)


CASES = [
    Case("gen", "gen --suite standard --n 10 --grid 32 --seed 0 --out-dir ds", 0,
         check=gen_layout),
    Case("eval", f"{EVAL} --tau 2 --out eval.json", 0, setup=DS, same={"eval.json": EVAL_JSON}),
    Case("eval-rewrites-a-longer-output", f"{EVAL} --tau 2 --out over.json", 0,
         setup=(*DS, write("over.json", b"longer than the result " * 200)),
         same={"over.json": EVAL_JSON}),
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
    Case("eval-missing-output-dir", f"{EVAL} --out nodir/eval.json", 2,
         "FileNotFoundError: output directory nodir does not exist", DS, ("nodir",)),
    Case("perturb-empty-mask", "perturb --mask empty.pgm --out draws.csv", 2,
         "EmptyMask: empty.pgm: cannot derive a box from an empty mask", (EMPTY_MASK,),
         ("draws.csv",)),
    Case("perturb-failure-keeps-output", "perturb --mask empty.pgm --out keep.csv", 2,
         "EmptyMask: empty.pgm: cannot derive a box from an empty mask",
         (EMPTY_MASK, write("keep.csv", KEPT)), same={"keep.csv": KEPT}),
    Case("perturb-bad-mask-header", "perturb --mask bad.pgm --out draws.csv", 2,
         "MalformedFile: bad.pgm: non-numeric PGM header token b'x'",
         (write("bad.pgm", BAD_HEADER),), ("draws.csv",)),
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
    Case("train-config-sets-seed-twice", TRAIN.format("twice.cfg"), 1,
         "twice.cfg:2: seed is already set", (*DS, write("twice.cfg", b"seed = 1\nseed = 2\n")),
         NO_MODEL),
    Case("train-config-not-utf-8", TRAIN.format("bad.cfg"), 1,
         "bad.cfg:2: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte",
         (*DS, write("bad.cfg", b"epochs = 1\nseed = \xff\n")), NO_MODEL),
    Case("ablate-missing-suite-keeps-output", "ablate --data-dir nowhere --out keep.csv", 2,
         "EmptyDataset: no manifest.json in nowhere/standard", (write("keep.csv", KEPT),),
         same={"keep.csv": KEPT}),
    Case("ablate-missing-output-dir", "ablate --data-dir ds --out nodir/ablation.csv", 2,
         "FileNotFoundError: output directory nodir does not exist", (suites,), ("nodir",)),
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
