import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from boxperturb import data as data_mod
from boxperturb import toyseg
from boxperturb.cli import build_parser, main, read_run_config
from console_cases import CASES, verify

README = Path(__file__).resolve().parent.parent / "README.md"


def run(*argv):
    return main(list(argv))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_console_case(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    for step in case.setup:
        step(tmp_path)
    if case.code:  # a failing case fails before any fit
        monkeypatch.setattr(toyseg, "train", lambda *a, **k: pytest.fail("train was called"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(case.argv.split())
    assert verify(case, tmp_path, code, capsys.readouterr().err) == []


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


@pytest.mark.parametrize("text, lineno", [
    pytest.param("bogus_key = 1\n", 1, id="unknown-key"),
    pytest.param("perturber = bogus\n", 1, id="perturber"),
    pytest.param("epochs 3\n", 1, id="no-equals"),
    pytest.param("seed = 1.5\n", 1, id="float-seed"),
    pytest.param("lr = 0.5\nepochs = 0\n", 2, id="zero-epochs"),
    pytest.param("eps_shrink = 5\n", 1, id="positive-eps-shrink"),
    pytest.param("# bools\nscale_by_target = yes\n", 2, id="non-bool"),
    pytest.param("prompt_frac = 0.5\n", 1, id="prompt-frac-range"),
    pytest.param("delta_expand = nan\n", 1, id="non-finite"),
    pytest.param("lam = -1\n", 1, id="negative-lam"),
    pytest.param("lr = -0.5\n", 1, id="negative-lr"),
    pytest.param("epochs = 2\nlr = 0\n", 2, id="zero-lr"),
    pytest.param("min_lr = -1\n", 1, id="negative-min-lr"),
    pytest.param("seed = -1\n", 1, id="negative-seed"),
])
def test_read_run_config_rejects_unknown_key(tmp_path, capsys, text, lineno):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    model, hist = tmp_path / "m.json", tmp_path / "h.csv"
    # The config is checked before the (missing) dataset is read.
    assert run("train", "--data-dir", str(tmp_path), "--config", str(cfg),
               "--out", str(model), "--history", str(hist)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"boxperturb: {cfg}:{lineno}: ")
    assert err.count("\n") == 1
    assert not model.exists() and not hist.exists()


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


def test_perturb_zero_config_rows_equal_box(tmp_path, mask_file):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("eps_shrink = 0\ndelta_expand = 0\n")
    out = tmp_path / "out.csv"
    assert run("perturb", "--mask", str(mask_file), "--config", str(cfg),
               "--n", "5", "--seed", "1", "--out", str(out)) == 0
    rows = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows[0].startswith("draw,x_min,y_min,x_max,y_max")
    for row in rows[1:]:
        fields = row.split(",")
        assert [float(x) for x in fields[1:5]] == [8.0, 10.0, 24.0, 20.0]
        assert fields[-1] == "0"


def test_perturb_deterministic_output(tmp_path, mask_file):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert run("perturb", "--mask", str(mask_file), "--n", "50",
                   "--seed", "42", "--out", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_perturb_scale_by_target_off_uses_raw_offsets(tmp_path, mask_file):
    cfg = tmp_path / "raw.cfg"
    cfg.write_text("scale_by_target = false\n")
    out = tmp_path / "out.csv"
    assert run("perturb", "--mask", str(mask_file), "--config", str(cfg),
               "--n", "3", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert "# scale_by_target = False" in lines
    rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    for row in rows[1:]:
        assert [float(x) for x in row[5:9]] == [-20.0, -20.0, 20.0, 20.0]


def test_perturb_stats_line_matches_rows(tmp_path, mask_file):
    out = tmp_path / "out.csv"
    assert run("perturb", "--mask", str(mask_file), "--n", "40", "--seed", "8",
               "--stats", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert rows[0][:5] == ["draw", "x_min", "y_min", "x_max", "y_max"]
    assert len(rows) == 41
    boxes = np.array([[float(x) for x in row[1:5]] for row in rows[1:]])
    widths, heights = boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]
    match = re.fullmatch(r"# stats: mean_width = (\S+), mean_height = (\S+), "
                         r"mean_aspect = (\S+)", lines[-1])
    assert match
    stats = [float(x) for x in match.groups()]
    assert stats == [np.mean(widths), np.mean(heights),
                     np.mean(widths) / np.mean(heights)]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_perturb_rejects_n_below_one(tmp_path, mask_file, n):
    out = tmp_path / "out.csv"
    assert run("perturb", "--mask", str(mask_file), "--n", n, "--stats",
               "--out", str(out)) == 1
    assert not out.exists()


def test_perturb_rejects_negative_seed(tmp_path, capsys):
    # Checked before the (missing) mask is read.
    out = tmp_path / "out.csv"
    assert run("perturb", "--mask", str(tmp_path / "missing.pgm"), "--seed", "-2",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == "boxperturb: --seed must be >= 0, got -2\n"
    assert not out.exists()


def test_eval_identical_files(tmp_path, mask_file):
    out = tmp_path / "eval.json"
    assert run("eval", "--gt", str(mask_file), "--pred", str(mask_file),
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["dsc"] == 1.0
    assert doc["nsd"] == 1.0
    assert doc["schema_version"] == 1
    assert doc["gt_pixels"] == doc["pred_pixels"] == 160


def test_eval_singleton_distance_case(tmp_path):
    g = np.zeros((6, 6), dtype=bool)
    s = np.zeros((6, 6), dtype=bool)
    g[0, 0] = True
    s[0, 3] = True
    gp = tmp_path / "g.pgm"
    sp = tmp_path / "s.pgm"
    data_mod.write_mask_pgm(gp, g)
    data_mod.write_mask_pgm(sp, s)
    out = tmp_path / "eval.json"
    assert run("eval", "--gt", str(gp), "--pred", str(sp), "--tau", "3",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["dsc"] == 0.0
    assert doc["nsd"] == 1.0
    assert run("eval", "--gt", str(gp), "--pred", str(sp), "--tau", "2.5",
               "--out", str(out)) == 0
    assert json.loads(out.read_text())["nsd"] == 0.0


def test_eval_dimension_mismatch_exit(tmp_path, capsys, mask_file):
    other = tmp_path / "other.pgm"
    data_mod.write_mask_pgm(other, np.zeros((6, 8), dtype=bool))
    out = tmp_path / "eval.json"
    assert run("eval", "--gt", str(mask_file), "--pred", str(other),
               "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"boxperturb: DimensionMismatch: mask sizes differ: {mask_file} is 32x32, "
        f"{other} is 8x6\n")
    assert not out.exists()


def test_gen_regeneration_identical(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    for d in (d1, d2):
        assert run("gen", "--n", "10", "--grid", "32", "--seed", "4",
                   "--out-dir", str(d)) == 0
    for p1 in sorted(d1.iterdir()):
        assert p1.read_bytes() == (d2 / p1.name).read_bytes()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["gen", "--n", "5"], "n must be >= 10", id="gen-n"),
    pytest.param(["gen", "--suite", "tiny", "--grid", "48"],
                 "grid must be >= 60 for the tiny suite", id="gen-tiny-grid"),
    pytest.param(["gen", "--grid", "-5"],
                 "grid must be >= 13 for the standard suite", id="gen-negative-grid"),
    pytest.param(["gen", "--suite", "standard", "--grid", "6"],
                 "grid must be >= 13 for the standard suite", id="gen-standard-grid"),
    pytest.param(["gen", "--seed", "-1"], "seed must be >= 0, got -1", id="gen-negative-seed"),
    pytest.param(["preprocess", "--resize", "0", "5"],
                 "output dimensions must be >= 1", id="preprocess-resize"),
])
def test_bad_size_arguments_exit_cleanly(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    if argv[0] == "gen":
        argv = argv + ["--out-dir", str(out)] + ([] if "--n" in argv else ["--n", "10"])
    else:
        src = tmp_path / "raw.f32g"
        data_mod.write_f32_grid(src, np.zeros((4, 4), dtype=np.float32))
        argv = argv + ["--in", str(src), "--window", "0", "1", "--out", str(out)]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"boxperturb: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


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


def test_train_history_floats_round_trip(tmp_path):
    data_dir = tmp_path / "ds"
    assert run("gen", "--n", "10", "--grid", "32", "--seed", "6",
               "--out-dir", str(data_dir)) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 6\nlr = 0.3\nscheduler_patience = 1\nseed = 2\n")
    hist = tmp_path / "h.csv"
    assert run("train", "--data-dir", str(data_dir), "--config", str(cfg),
               "--out", str(tmp_path / "m.json"), "--history", str(hist)) == 0
    _, history = toyseg.train(data_mod.load_dataset(data_dir), read_run_config(cfg).train)
    rows = [line.split(",") for line in hist.read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == ["epoch", "train_loss", "val_loss", "lr"]
    assert len(rows) == 1 + len(history)
    for row, rec in zip(rows[1:], history):
        assert int(row[0]) == rec.epoch
        assert [float(x) for x in row[1:]] == [rec.train_loss, rec.val_loss, rec.lr]


def test_train_missing_dataset_exit(tmp_path):
    assert run("train", "--data-dir", str(tmp_path / "nope"),
               "--out", str(tmp_path / "m.json"),
               "--history", str(tmp_path / "h.csv")) == 2


@pytest.mark.parametrize("manifest", [
    "{bad", '{"samples": []}', "[]", '{"samples": [], "splits": []}',
    '{"samples": [], "splits": {"train": ["x"]}}',
    '{"samples": [{"id": "x", "image": "x.f32g"}], "splits": {"train": ["x"]}}',
    '{"samples": [{"id": [1], "image": "a", "mask": "b"}], "splits": {}}',
    '{"samples": [], "splits": {"train": [["x"]]}}',
])
def test_train_malformed_manifest_exit(tmp_path, capsys, manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    model = tmp_path / "m.json"
    assert run("train", "--data-dir", str(tmp_path), "--out", str(model),
               "--history", str(tmp_path / "h.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"boxperturb: MalformedFile: {tmp_path / 'manifest.json'}: ")
    assert err.count("\n") == 1
    assert not model.exists()


def test_failed_train_removes_the_model_it_wrote(tmp_path, capsys):
    data_dir = tmp_path / "ds"
    assert run("gen", "--n", "10", "--grid", "32", "--seed", "4",
               "--out-dir", str(data_dir)) == 0
    cfg = tmp_path / "one.cfg"
    cfg.write_text("epochs = 1\n")
    model = tmp_path / "m.json"
    assert run("train", "--data-dir", str(data_dir), "--config", str(cfg), "--out", str(model),
               "--history", str(tmp_path / "missing" / "h.csv")) == 2
    assert capsys.readouterr().err.startswith("boxperturb: FileNotFoundError: ")
    assert not model.exists()


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


def test_ablate_schema(tmp_path):
    root = tmp_path / "ds"
    assert run("gen", "--suite", "standard", "--n", "10", "--grid", "48",
               "--seed", "4", "--out-dir", str(root / "standard")) == 0
    assert run("gen", "--suite", "tiny", "--n", "10", "--grid", "64",
               "--seed", "5", "--out-dir", str(root / "tiny")) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\n")
    out = tmp_path / "ablation.csv"
    assert run("ablate", "--data-dir", str(root), "--config", str(cfg),
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert any(line.startswith("# schema_version") for line in lines)
    rows = [line for line in lines if line and not line.startswith("#")]
    header = rows[0].split(",")
    assert header[0] == "config"
    names = [row.split(",")[0] for row in rows[1:]]
    assert names == ["baseline", "+theta_xi", "+bidirectional", "full"]
    for row in rows[1:]:
        values = dict(zip(header, row.split(",")))
        for key in ("dsc_standard", "nsd_standard", "dsc_expand", "nsd_expand",
                    "dsc_shrink", "nsd_shrink", "error_rate"):
            assert 0.0 <= float(values[key]) <= 1.0


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


def test_ablate_missing_suite_exit(tmp_path, capsys):
    # The standard suite is loaded first, so it is the one named when both are missing.
    cases = ((("standard",), "tiny"), (("tiny",), "standard"), ((), "standard"))
    for i, (present, missing) in enumerate(cases):
        root = tmp_path / f"ds{i}"
        for suite in present:
            assert run("gen", "--suite", suite, "--n", "10", "--grid", "64",
                       "--seed", "4", "--out-dir", str(root / suite)) == 0
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert run("ablate", "--data-dir", str(root), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"boxperturb: EmptyDataset: no manifest.json in {root / missing}\n"
        assert not out.exists()


@pytest.mark.parametrize("suite", ["standard", "tiny"])
def test_ablate_empty_test_split_exit(tmp_path, capsys, monkeypatch, suite):
    root = tmp_path / "ds"
    assert run("gen", "--suite", "standard", "--n", "10", "--grid", "48",
               "--seed", "4", "--out-dir", str(root / "standard")) == 0
    assert run("gen", "--suite", "tiny", "--n", "10", "--grid", "64",
               "--seed", "5", "--out-dir", str(root / "tiny")) == 0
    manifest_path = root / suite / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["splits"]["test"] = []
    manifest_path.write_text(json.dumps(manifest))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\n")
    out = tmp_path / "ablation.csv"
    # The split is checked as the suite is loaded, before any fit.
    monkeypatch.setattr(toyseg, "train", lambda *a, **k: pytest.fail("train was called"))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("ablate", "--data-dir", str(root), "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == f"boxperturb: EmptyDataset: {root / suite}: empty test split\n"
    assert not out.exists()


def test_ablate_rejects_a_test_sample_that_is_also_a_training_sample(tmp_path, capsys,
                                                                     monkeypatch):
    root = tmp_path / "ds"
    assert run("gen", "--suite", "standard", "--n", "10", "--grid", "48",
               "--seed", "4", "--out-dir", str(root / "standard")) == 0
    assert run("gen", "--suite", "tiny", "--n", "10", "--grid", "64",
               "--seed", "5", "--out-dir", str(root / "tiny")) == 0
    manifest_path = root / "tiny" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["splits"]["test"].append(manifest["splits"]["train"][0])
    manifest_path.write_text(json.dumps(manifest))
    out = tmp_path / "ablation.csv"
    monkeypatch.setattr(toyseg, "train", lambda *a, **k: pytest.fail("train was called"))
    capsys.readouterr()
    assert run("ablate", "--data-dir", str(root), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"boxperturb: MalformedFile: {manifest_path}: "
        f"split 'test' names sample '0000', already in split 'train'\n")
    assert not out.exists()


class _ArrayMemoryError(MemoryError):
    """A private subclass, as numpy raises when an allocation fails."""


@pytest.mark.parametrize("argv, failing", [
    (["gen", "--n", "10", "--grid", "100000", "--out-dir", "{tmp}/big"], "gen_synthetic"),
    (["preprocess", "--in", "{tmp}/x.f32g", "--window", "0", "1",
      "--resize", "100000", "100000", "--out", "{tmp}/y.f32g"], "resample_bilinear"),
], ids=["gen", "preprocess-resize"])
def test_allocation_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv, failing):
    # Nothing is allocated for real: under memory overcommit a huge allocation
    # can succeed, and the process is then killed when it touches the pages.
    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

    def fail(*args, **kwargs):
        raise _ArrayMemoryError(message)

    monkeypatch.setattr(data_mod, failing, fail)
    data_mod.write_f32_grid(tmp_path / "x.f32g", np.zeros((2, 2), dtype=np.float32))
    assert run(*[a.format(tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == f"boxperturb: MemoryError: {message}\n"
    assert not (tmp_path / "big").exists() and not (tmp_path / "y.f32g").exists()


@pytest.mark.parametrize("threshold", ["nan", "-1", "2", "0"])
def test_ablate_rejects_bad_error_threshold(tmp_path, capsys, monkeypatch, threshold):
    # Checked before any data is read: the data directory does not exist.
    monkeypatch.setattr(toyseg, "train", lambda *a, **k: pytest.fail("train was called"))
    out = tmp_path / "ablation.csv"
    assert run("ablate", "--data-dir", str(tmp_path / "missing"), "--out", str(out),
               "--error-dsc-threshold", threshold) == 1
    assert capsys.readouterr().err == (
        f"boxperturb: --error-dsc-threshold must be in (0, 1], got {float(threshold)}\n")
    assert not out.exists()


def test_preprocess_window_endpoints(tmp_path):
    raw = np.array([[-360.0, 440.0], [40.0, 1000.0]], dtype=np.float32)
    src = tmp_path / "raw.f32g"
    data_mod.write_f32_grid(src, raw)
    out = tmp_path / "norm.f32g"
    assert run("preprocess", "--in", str(src), "--window", "-360", "440",
               "--out", str(out)) == 0
    grid = data_mod.read_f32_grid(out)
    assert grid[0, 0] == 0.0
    assert grid[0, 1] == 1.0
    assert grid[1, 1] == 1.0
    assert grid.shape == (2, 2)


def test_preprocess_lung_window_and_resize(tmp_path):
    raw = np.linspace(-1200, 600, 16, dtype=np.float32).reshape(4, 4)
    src = tmp_path / "raw.f32g"
    data_mod.write_f32_grid(src, raw)
    out = tmp_path / "norm.f32g"
    assert run("preprocess", "--in", str(src), "--window", "-1000", "400",
               "--resize", "8", "8", "--out", str(out)) == 0
    grid = data_mod.read_f32_grid(out)
    assert grid.shape == (8, 8)
    assert grid.min() >= 0.0 and grid.max() <= 1.0


def test_usage_error_exit_code():
    assert run("perturb") == 1
    assert run("no-such-command") == 1


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
