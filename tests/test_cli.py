import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from boxperturb import data as data_mod
from boxperturb import cli, toyseg
from boxperturb.cli import build_parser, main, read_run_config
from boxperturb.errors import EmptyDataset
from console_cases import CASES, KEPT, MANIFESTS, ONE_EPOCH, gen, verify, write

README = Path(__file__).resolve().parent.parent / "README.md"


def run(*argv):
    return main(list(argv))


ROWS = {case.id: case for case in CASES}
CONFIG_IDS = ("unknown-key", "perturber", "no-equals", "float-seed", "zero-epochs",
              "positive-eps-shrink", "non-bool", "prompt-frac-range", "non-finite",
              "negative-lam", "negative-lr", "zero-lr", "negative-min-lr", "negative-seed")

# Families of rows that run under the name and ids of the test they were
# written as before they became rows: {test name: {id: row id}}.
FAMILIES = {
    "read_run_config_rejects_unknown_key": {i: f"train-config-{i}" for i in CONFIG_IDS},
    "train_malformed_manifest_exit": {manifest: f"train-manifest-{i}"
                                      for i, manifest, _ in MANIFESTS},
    "bad_size_arguments_exit_cleanly": {
        **{f"gen-{i}": f"gen-{i}"
           for i in ("n", "tiny-grid", "negative-grid", "standard-grid", "negative-seed")},
        "preprocess-resize": "preprocess-resize-zero"},
    "ablate_rejects_bad_error_threshold": {t: f"ablate-error-dsc-threshold={t}"
                                           for t in ("nan", "-1", "2", "0")},
    "perturb_rejects_n_below_one": {n: f"perturb-n={n}" for n in ("0", "-3")},
}
IN_A_FAMILY = {row for family in FAMILIES.values() for row in family.values()}


def rows(family):
    return [pytest.param(ROWS[row], id=i) for i, row in FAMILIES[family].items()]


@pytest.mark.parametrize("case", [case for case in CASES if case.id not in IN_A_FAMILY],
                         ids=lambda case: case.id)
def test_console_case(tmp_path, capsys, monkeypatch, case):
    run_row(tmp_path, capsys, monkeypatch, case)


@pytest.mark.parametrize("case", rows("read_run_config_rejects_unknown_key"))
def test_read_run_config_rejects_unknown_key(tmp_path, capsys, monkeypatch, case):
    run_row(tmp_path, capsys, monkeypatch, case)


@pytest.mark.parametrize("case", rows("train_malformed_manifest_exit"))
def test_train_malformed_manifest_exit(tmp_path, capsys, monkeypatch, case):
    run_row(tmp_path, capsys, monkeypatch, case)


@pytest.mark.parametrize("case", rows("bad_size_arguments_exit_cleanly"))
def test_bad_size_arguments_exit_cleanly(tmp_path, capsys, monkeypatch, case):
    run_row(tmp_path, capsys, monkeypatch, case)


@pytest.mark.parametrize("case", rows("ablate_rejects_bad_error_threshold"))
def test_ablate_rejects_bad_error_threshold(tmp_path, capsys, monkeypatch, case):
    run_row(tmp_path, capsys, monkeypatch, case)


@pytest.mark.parametrize("case", rows("perturb_rejects_n_below_one"))
def test_perturb_rejects_n_below_one(tmp_path, capsys, monkeypatch, case):
    run_row(tmp_path, capsys, monkeypatch, case)


def run_row(tmp_path, capsys, monkeypatch, case):
    """Run case in process through main in the empty directory tmp_path and check it."""
    monkeypatch.chdir(tmp_path)
    for step in case.setup:
        step(tmp_path)
    if case.code:  # a failing case fails before any fit
        monkeypatch.setattr(toyseg, "train", lambda *a, **k: pytest.fail("train was called"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(case.argv.split())
    assert verify(case, tmp_path, code, capsys.readouterr().err) == []


def test_console_case_ids_are_unique():
    ids = [case.id for case in CASES]
    assert sorted({i for i in ids if ids.count(i) > 1}) == []


@pytest.fixture()
def mask_file(tmp_path):
    mask = np.zeros((32, 32), dtype=bool)
    mask[10:20, 8:24] = True
    path = tmp_path / "mask.pgm"
    data_mod.write_mask_pgm(path, mask)
    return path


def test_read_run_config_defaults_and_overrides(tmp_path):
    cfg = read_run_config(None)
    assert cfg.train.perturb.eps_shrink == -20.0
    assert cfg.train.perturb.scale_by_target is True
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nlr = 0.5\nepochs = 3\nscale_by_target = false\n")
    cfg = read_run_config(path)
    assert cfg.train.lr == 0.5
    assert cfg.train.epochs == 3
    assert cfg.train.perturb.scale_by_target is False
    assert cfg.tau == 2.0
    assert len(cfg.values()) == 17


def test_readme_config_table_matches_defaults():
    text = README.read_text()
    section = text[text.index("## Config file"):]
    section = section[:section.index("\n## ", 1)]
    rows = dict(re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, re.M))
    defaults = read_run_config(None).values()
    assert rows.keys() == defaults.keys()
    for key, value in defaults.items():
        documented = rows[key]
        if isinstance(value, bool):
            assert documented == str(value).lower(), key
        else:
            assert type(value)(documented) == value, key


def test_perturb_deterministic_output(tmp_path, mask_file):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert run("perturb", "--mask", str(mask_file), "--n", "50",
                   "--seed", "42", "--out", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_regeneration_identical(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    for d in (d1, d2):
        assert run("gen", "--n", "10", "--grid", "32", "--seed", "4",
                   "--out-dir", str(d)) == 0
    for p1 in sorted(d1.iterdir()):
        assert p1.read_bytes() == (d2 / p1.name).read_bytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("suite, grid", [("standard", 32), ("tiny", 64)])
def test_gen_writes_the_dataset_gen_synthetic_holds(tmp_path, suite, grid, seed):
    # gen streams its samples to save_dataset; gen_synthetic holds them all first.
    streamed, held = tmp_path / "streamed", tmp_path / "held"
    assert run("gen", "--suite", suite, "--n", "20", "--grid", str(grid), "--seed", str(seed),
               "--out-dir", str(streamed)) == 0
    data_mod.save_dataset(data_mod.gen_synthetic(20, suite, grid, seed), held, suite, grid, seed)
    names = sorted(path.name for path in streamed.iterdir())
    assert names == sorted(path.name for path in held.iterdir())
    for name in names:
        assert (streamed / name).read_bytes() == (held / name).read_bytes(), name


def test_gen_holds_one_sample_at_a_time(tmp_path):
    def traced_peak(n):
        tracemalloc.start()
        try:
            assert run("gen", "--n", str(n), "--grid", "64",
                       "--out-dir", str(tmp_path / f"{n}")) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert run("gen", "--n", "10", "--grid", "64", "--out-dir", str(tmp_path / "warm")) == 0
    one_sample = 64 * 64 * 5  # a float32 image and a bool mask
    assert traced_peak(40) - traced_peak(10) < one_sample


def test_train_and_history(tmp_path):
    data_dir = tmp_path / "ds"
    assert run("gen", "--n", "10", "--grid", "32", "--seed", "4",
               "--out-dir", str(data_dir)) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\neps_shrink = 0\ndelta_expand = 0\n")
    model1 = tmp_path / "m1.json"
    hist = tmp_path / "h.csv"
    assert run("train", "--data-dir", str(data_dir), "--config", str(cfg),
               "--out", str(model1), "--history", str(hist)) == 0
    rows = [line for line in hist.read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows[0] == "epoch,train_loss,val_loss,lr"
    assert len(rows) == 2  # header + 1 epoch
    model2 = tmp_path / "m2.json"
    assert run("train", "--data-dir", str(data_dir), "--config", str(cfg),
               "--out", str(model2), "--history", str(tmp_path / "h2.csv")) == 0
    assert model1.read_bytes() == model2.read_bytes()


def test_failed_train_keeps_the_old_model(tmp_path, capsys, monkeypatch):
    data_dir = tmp_path / "ds"
    assert run("gen", "--n", "10", "--grid", "32", "--seed", "4",
               "--out-dir", str(data_dir)) == 0
    cfg = tmp_path / "one.cfg"
    cfg.write_text("epochs = 1\n")
    model = tmp_path / "m.json"
    model.write_bytes(KEPT)

    def failing_history(path, *args, **kwargs):
        temp = tmp_path / f".m.json.{os.getpid()}.tmp"
        assert temp.exists(), "the history is written after the model's temporary"
        raise OSError("no space left for the history")

    monkeypatch.setattr(cli, "_write_csv", failing_history)
    capsys.readouterr()
    assert run("train", "--data-dir", str(data_dir), "--config", str(cfg), "--out", str(model),
               "--history", str(tmp_path / "h.csv")) == 2
    assert capsys.readouterr().err == "boxperturb: OSError: no space left for the history\n"
    assert model.read_bytes() == KEPT
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ds", "m.json", "one.cfg"]


# Run in a child process: train, killed as it starts to write the history.
KILLED_TRAIN = """
import os, signal
from boxperturb import cli
cli._write_csv = lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL)
cli.main("train --data-dir ds --config one.cfg --out m.json --history h.csv".split())
"""


def test_killed_train_leaves_each_output_whole(tmp_path):
    for step in (gen(), ONE_EPOCH, write("m.json", KEPT), write("h.csv", KEPT + b"h")):
        step(tmp_path)
    before = {path.name for path in tmp_path.iterdir()}
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", KILLED_TRAIN], cwd=tmp_path, env=env,
                           capture_output=True, text=True)
    assert child.returncode == -signal.SIGKILL, child.stderr
    assert (tmp_path / "m.json").read_bytes() == KEPT
    assert (tmp_path / "h.csv").read_bytes() == KEPT + b"h"
    new = [path.name for path in tmp_path.iterdir() if path.name not in before]
    assert [name for name in new if not re.fullmatch(r"\.m\.json\.\d+\.tmp", name)] == []


def test_failed_gen_leaves_a_dataset_that_load_dataset_rejects(tmp_path, capsys, monkeypatch):
    data_dir = tmp_path / "ds"
    gen_argv = ["gen", "--n", "10", "--grid", "32", "--out-dir", str(data_dir)]
    assert run(*gen_argv, "--seed", "0") == 0
    masks = []
    write_mask = data_mod.write_mask_pgm

    def third_mask_fails(path, mask):
        masks.append(path)
        if len(masks) == 3:
            raise OSError("no space left for the third mask")
        write_mask(path, mask)

    monkeypatch.setattr(data_mod, "write_mask_pgm", third_mask_fails)
    capsys.readouterr()
    assert run(*gen_argv, "--seed", "1") == 2
    assert capsys.readouterr().err == "boxperturb: OSError: no space left for the third mask\n"
    with pytest.raises(EmptyDataset, match=f"^no manifest.json in {re.escape(str(data_dir))}$"):
        data_mod.load_dataset(data_dir)


def test_interrupted_command_leaves_no_temporary(tmp_path, mask_file, monkeypatch):
    write_csv = cli._write_csv

    def write_then_interrupt(*args, **kwargs):
        write_csv(*args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_write_csv", write_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        run("perturb", "--mask", str(mask_file), "--n", "5", "--out", str(tmp_path / "d.csv"))
    assert list(tmp_path.glob(".*.tmp")) == []
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("command", ["ablate", "train", "eval"])
def test_missing_output_directory_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                        mask_file, command):
    root = tmp_path / "ds"
    for suite, grid in (("standard", "32"), ("tiny", "64")):
        assert run("gen", "--suite", suite, "--n", "10", "--grid", grid,
                   "--seed", "4", "--out-dir", str(root / suite)) == 0
    monkeypatch.setattr(toyseg, "train", lambda *a, **k: pytest.fail("train was called"))
    capsys.readouterr()
    missing = tmp_path / "missing"
    model = tmp_path / "m.json"
    argv = {
        "ablate": ["ablate", "--data-dir", str(root), "--out", str(missing / "x.csv")],
        "train": ["train", "--data-dir", str(root / "standard"), "--out", str(model),
                  "--history", str(missing / "h.csv")],
        "eval": ["eval", "--gt", str(mask_file), "--pred", str(mask_file),
                 "--out", str(missing / "x.json")],
    }[command]
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        f"boxperturb: FileNotFoundError: output directory {missing} does not exist\n")
    assert not missing.exists() and not model.exists()


def test_ablate_rows_override_the_configured_perturbation(tmp_path, monkeypatch):
    root = tmp_path / "ds"
    assert run("gen", "--suite", "standard", "--n", "10", "--grid", "48",
               "--seed", "4", "--out-dir", str(root / "standard")) == 0
    assert run("gen", "--suite", "tiny", "--n", "10", "--grid", "64",
               "--seed", "5", "--out-dir", str(root / "tiny")) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps_shrink = -7\nscale_by_target = false\n")
    fits = []

    def record(split, train_cfg):
        fits.append((train_cfg.perturb.scale_by_target, train_cfg.perturb.eps_shrink))
        return toyseg.ToyModel(), []

    monkeypatch.setattr(toyseg, "train", record)
    assert run("ablate", "--data-dir", str(root), "--config", str(cfg),
               "--out", str(tmp_path / "ablation.csv")) == 0
    # Each row fits the standard suite, then the tiny one.
    assert fits == ([(False, 0.0)] * 2 + [(True, 0.0)] * 2
                    + [(False, -7.0)] * 2 + [(True, -7.0)] * 2)


class _ArrayMemoryError(MemoryError):
    """A private subclass, as numpy raises when an allocation fails."""


@pytest.mark.parametrize("argv, patch", [
    # gen allocates inside its stream of samples, as it makes the first one.
    (["gen", "--n", "10", "--grid", "100000", "--out-dir", "{tmp}/big"],
     lambda mp, fail: mp.setitem(data_mod._SUITES, "standard", (13, fail))),
    (["preprocess", "--in", "{tmp}/x.f32g", "--window", "0", "1",
      "--resize", "100000", "100000", "--out", "{tmp}/y.f32g"],
     lambda mp, fail: mp.setattr(data_mod, "resample_bilinear", fail)),
], ids=["gen", "preprocess-resize"])
def test_allocation_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv, patch):
    # Nothing is allocated for real: under memory overcommit a huge allocation
    # can succeed, and the process is then killed when it touches the pages.
    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

    def fail(*args, **kwargs):
        raise _ArrayMemoryError(message)

    patch(monkeypatch, fail)
    data_mod.write_f32_grid(tmp_path / "x.f32g", np.zeros((2, 2), dtype=np.float32))
    assert run(*[a.format(tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == f"boxperturb: MemoryError: {message}\n"
    assert not (tmp_path / "big").exists() and not (tmp_path / "y.f32g").exists()


def test_parser_is_built_once_and_keeps_no_state(tmp_path, mask_file):
    assert build_parser() is build_parser()
    other = tmp_path / "other.pgm"
    shifted = np.zeros((32, 32), dtype=bool)
    shifted[12:22, 10:26] = True
    data_mod.write_mask_pgm(other, shifted)
    lone, again = tmp_path / "lone.json", tmp_path / "again.json"
    eval_argv = ["eval", "--gt", str(mask_file), "--pred", str(other)]
    assert run(*eval_argv, "--out", str(lone)) == 0
    assert run("eval", "--gt", str(mask_file), "--tau", "x") == 1
    assert run(*eval_argv, "--out", str(again)) == 0
    assert again.read_bytes() == lone.read_bytes()
    # A flag given to one call does not become the next call's default.
    assert run(*eval_argv, "--tau", "3", "--out", str(again)) == 0
    assert json.loads(again.read_text())["tau"] == 3.0
    assert run(*eval_argv, "--out", str(again)) == 0
    assert json.loads(again.read_text())["tau"] == 2.0
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 7\n")
    seeded, unseeded, seven = (tmp_path / f"{name}.csv" for name in ("5", "none", "7"))
    assert run("perturb", "--mask", str(mask_file), "--config", str(cfg), "--seed", "5",
               "--out", str(seeded)) == 0
    assert run("perturb", "--mask", str(mask_file), "--config", str(cfg),
               "--out", str(unseeded)) == 0
    assert run("perturb", "--mask", str(mask_file), "--config", str(cfg), "--seed", "7",
               "--out", str(seven)) == 0
    assert "# seed = 7\n" in unseeded.read_text()
    assert unseeded.read_bytes() == seven.read_bytes() != seeded.read_bytes()
