"""A seeded fuzz test of the console: damaged inputs end in a clean exit.

Each case damages one input file of one command with 1-3 byte-level
mutations, most in the first 64 bytes where the headers are, runs the
command in process and checks what every run must keep:

- the exit code is 0, 1 or 2;
- a nonzero exit prints exactly one stderr line, starting `boxperturb: `,
  and leaves none of the command's outputs;
- a zero exit prints nothing on stderr;
- no warning is raised;
- no temporary `.*.tmp` file is left behind.

The seed and the number of cases are fixed, so every run makes the same
cases; a failing case is named by its index and target.
"""

import math
import shutil
import warnings

import numpy as np
import pytest

from boxperturb.cli import main
from console_cases import ONE_EPOCH, f32g, gen, write

SEED = 11
N_CASES = 140
TRAIN = ("train --data-dir ds --config one.cfg --out model.json --history history.csv",
         ("model.json", "history.csv"))
# target -> (the file it damages, {} for a sample number; argv; its outputs)
TARGETS = {
    "eval": ("ds/mask_0000.pgm",
             "eval --gt ds/mask_0000.pgm --pred ds/mask_0001.pgm --out out.json", ("out.json",)),
    "perturb": ("ds/mask_0000.pgm", "perturb --mask ds/mask_0000.pgm --n 5 --out out.csv",
                ("out.csv",)),
    "preprocess": ("in.f32g", "preprocess --in in.f32g --window 0 1 --out out.f32g",
                   ("out.f32g",)),
    "train-manifest": ("ds/manifest.json", *TRAIN),
    "train-image": ("ds/img_{:04d}.f32g", *TRAIN),
    "train-mask": ("ds/mask_{:04d}.pgm", *TRAIN),
    # The config as train reads it, but with no fit, which a damaged `epochs` could make long.
    "config": ("run.cfg", "perturb --mask ds/mask_0000.pgm --config run.cfg --n 5 --out out.csv",
               ("out.csv",)),
}
CONFIG = (b"epochs = 1\nseed = 3\neps_shrink = -20\ndelta_expand = 20\ntheta_floor = 0.01\n"
          b"min_box_size = 1\nscale_by_target = true\n")
# Non-finite and extreme pixels, so that a changed byte can make any float32 bit pattern.
GRID = f32g(4, 4, math.inf, -math.inf, math.nan, 0.25, math.inf, 1e30, -1e30, math.inf,
            math.nan, 0.5, 3.4e38, math.inf, -math.inf, 0.0, 1.0, math.inf)
INSERTED = b"0123456789+-.#enaif \x00\xff"


def mutate(content: bytes, rng: np.random.Generator) -> bytes:
    """content with 1-3 mutations: set, delete or insert a byte, truncate, duplicate a run,
    or replace a run with an integer; three in four start in the first 64 bytes."""
    for _ in range(rng.integers(1, 4)):
        end = len(content) if rng.random() < 0.25 else min(len(content), 64)
        at, run, op = int(rng.integers(0, end + 1)), int(rng.integers(1, 9)), rng.integers(6)
        if op == 0:  # set a byte
            content = content[:at] + bytes([rng.integers(256)]) + content[at + 1:]
        elif op == 1:  # delete a byte
            content = content[:at] + content[at + 1:]
        elif op == 2:  # insert a byte
            content = content[:at] + bytes([rng.choice(list(INSERTED))]) + content[at:]
        elif op == 3:  # truncate
            content = content[:at]
        elif op == 4:  # duplicate a run
            content = content[:at + run] + content[at:at + run] + content[at + run:]
        else:  # replace a run with an integer
            number = rng.integers(-99, 10 ** rng.integers(1, 12))
            content = content[:at] + str(number).encode() + content[at + run:]
    return content


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of every file a case can damage, in its undamaged form."""
    root = tmp_path_factory.mktemp("inputs")
    for step in (gen(), ONE_EPOCH, write("run.cfg", CONFIG), write("in.f32g", GRID)):
        step(root)
    return root


@pytest.mark.parametrize("index, target", [(i, list(TARGETS)[i % len(TARGETS)])
                                           for i in range(N_CASES)],
                         ids=str)
def test_damaged_input_exits_cleanly(tmp_path, capsys, monkeypatch, inputs, index, target):
    rng = np.random.default_rng([SEED, index])
    damaged, argv, outputs = TARGETS[target]
    damaged = tmp_path / damaged.format(int(rng.integers(10)))
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    damaged.write_bytes(mutate(damaged.read_bytes(), rng))
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv.split())
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("boxperturb: ") and err.count("\n") == 1 and err.endswith("\n")
        assert [name for name in outputs if (tmp_path / name).exists()] == []
    else:
        assert err == ""
    assert list(tmp_path.rglob(".*.tmp")) == []
