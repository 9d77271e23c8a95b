"""Command-level behavior: determinism, exit codes, file contracts."""

import hashlib
import json
import os
import re
import struct
import zlib

import numpy as np
import pytest

from auroracast import cli
from auroracast import ingest as I
from auroracast import train as T
from auroracast.cli import main
from auroracast.errors import ConfigError
from auroracast.losses import ARCH_LOSSES, LOSS_VARIANTS, check_pairing
from auroracast.models import load_checkpoint, save_checkpoint

from _reference import cache_bytes_container


def run(*argv):
    return main([str(a) for a in argv])


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(
        "\n".join(
            [
                "# small fast settings for command tests",
                "world.n_sats = 1",
                "world.obs_cadence_s = 120",
                "arch.hidden = 8,4",
                "train.max_epochs = 2",
                "train.batch_size = 1024",
                "train.seed = 5",
            ]
        )
        + "\n"
    )
    return path


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory, config_file):
    out = tmp_path_factory.mktemp("synth")
    assert run("synth", "--config", config_file, "--out-dir", out, "--days", 1.0, "--seed", 3) == 0
    return out


@pytest.fixture(scope="module")
def features_file(tmp_path_factory, synth_dir, config_file):
    out = tmp_path_factory.mktemp("feat") / "table.aft"
    assert (
        run(
            "features",
            "--drivers",
            synth_dir / "drivers.csv",
            "--obs",
            synth_dir / "observations.csv",
            "--config",
            config_file,
            "--out",
            out,
        )
        == 0
    )
    return out


class TestSynth:
    def test_deterministic_bytes(self, tmp_path, config_file):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--config", config_file, "--out-dir", a, "--days", 0.2, "--seed", 11) == 0
        assert run("synth", "--config", config_file, "--out-dir", b, "--days", 0.2, "--seed", 11) == 0
        assert _dir_bytes(a) == _dir_bytes(b)

    def test_zero_days_config_error(self, tmp_path):
        assert run("synth", "--out-dir", tmp_path / "x", "--days", 0) == 2

    @pytest.mark.parametrize("days", ["nan", "inf", "1e-9"])
    def test_bad_days_config_error(self, tmp_path, capsys, days):
        """A --days that is not finite or spans less than one driver
        cadence step exits 2, names the flag and writes nothing."""
        out = tmp_path / "x"
        assert run("synth", "--out-dir", out, "--days", days) == 2
        assert "--days" in capsys.readouterr().err
        assert not out.exists()

    def test_row_count_arithmetic(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("world.n_sats = 2\nworld.obs_cadence_s = 60\n")
        out = tmp_path / "synth30"
        assert run("synth", "--config", cfg, "--out-dir", out, "--days", 30, "--seed", 1) == 0
        with open(out / "observations.csv") as fh:
            n_rows = sum(1 for _ in fh) - 1
        assert n_rows == 2 * 43200 + 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("world.unknown_thing = 1\n")
        assert run("synth", "--config", cfg, "--out-dir", tmp_path / "x", "--days", 1) == 2

    def test_manifest_written(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert set(manifest["outputs"]) == {"drivers.csv", "observations.csv"}


    def test_observations_round_trip(self, synth_dir, config_file):
        from auroracast import geomodel as G
        from auroracast import ingest as I

        _, cfg = cli.load_config(config_file)
        params = G.world_params_from_config(cfg, seed=3)
        expect = G.sample_traces(params, G.gen_drivers(params, 86400.0))
        table, dropped = I.read_observations_csv(synth_dir / "observations.csv")
        assert dropped == 0
        for name in ("t", "sat_id", "mlat", "mlt", "eflux", "region"):
            assert np.array_equal(getattr(table, name), getattr(expect, name)), name


class TestFeatures:
    def test_rerun_identical(self, tmp_path, synth_dir, config_file):
        out1 = tmp_path / "t1.aft"
        out2 = tmp_path / "t2.aft"
        for out in (out1, out2):
            assert (
                run(
                    "features",
                    "--drivers",
                    synth_dir / "drivers.csv",
                    "--obs",
                    synth_dir / "observations.csv",
                    "--config",
                    config_file,
                    "--out",
                    out,
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_column_is_data_error(self, tmp_path, synth_dir):
        broken = tmp_path / "broken.csv"
        lines = (synth_dir / "drivers.csv").read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("PC")
        rows = [",".join(v for i, v in enumerate(l.split(",")) if i != drop) for l in lines]
        broken.write_text("\n".join(rows) + "\n")
        code = run(
            "features",
            "--drivers",
            broken,
            "--obs",
            synth_dir / "observations.csv",
            "--out",
            tmp_path / "t.aft",
        )
        assert code == 3

    def test_cleaning_report_counts(self, features_file, synth_dir):
        report = (str(features_file) + ".cleaning.csv")
        with open(report) as fh:
            header = fh.readline().strip().split(",")
            values = fh.readline().strip().split(",")
        row = dict(zip(header, values))
        with open(synth_dir / "observations.csv") as fh:
            n_obs = sum(1 for _ in fh) - 1
        assert int(row["n_in"]) == n_obs
        assert int(row["n_dropped_outlier"]) >= 0


class TestTrain:
    def test_tail_with_baseline_runs(self, tmp_path, features_file, config_file):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(config_file.read_text() + "loss = tail\n")
        out = tmp_path / "run"
        assert run("train", "--features", features_file, "--config", cfg, "--out-dir", out) == 0
        assert (out / "checkpoint.aur").exists()
        assert (out / "history.csv").exists()
        assert (out / "manifest.json").exists()
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss"

    def test_sparse_masked_with_baseline_is_config_error(self, tmp_path, features_file, config_file):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(config_file.read_text() + "loss = sparse_masked\n")
        assert (
            run("train", "--features", features_file, "--config", cfg, "--out-dir", tmp_path / "x")
            == 2
        )

    def test_no_data_source_leaves_no_out_dir(self, tmp_path, config_file):
        out = tmp_path / "run"
        assert run("train", "--config", config_file, "--out-dir", out) == 2
        assert not out.exists()

    def test_both_data_sources_leave_no_out_dir(self, tmp_path, capsys, features_file, synth_dir):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("arch = conv\narch.grid = 32\nloss = sparse_masked\n")
        out = tmp_path / "run"
        argv = ("--features", features_file, "--sparse", synth_dir, "--config", cfg, "--out-dir", out)
        assert run("train", *argv) == 2
        assert "exactly one of --features or --sparse" in capsys.readouterr().err
        assert not out.exists()

    def test_sparse_dir_without_drivers_leaves_no_out_dir(self, tmp_path, synth_dir):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("arch = conv\narch.grid = 32\nloss = sparse_masked\n")
        sparse = tmp_path / "partial"
        sparse.mkdir()
        (sparse / "observations.csv").write_bytes((synth_dir / "observations.csv").read_bytes())
        out = tmp_path / "run"
        assert run("train", "--sparse", sparse, "--config", cfg, "--out-dir", out) == 3
        assert not out.exists()

    def test_same_seed_identical_history(self, tmp_path, features_file, config_file):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert (
                run("train", "--features", features_file, "--config", config_file, "--out-dir", out)
                == 0
            )
            outs.append(out)
        assert (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()
        assert (outs[0] / "checkpoint.aur").read_bytes() == (outs[1] / "checkpoint.aur").read_bytes()

    def test_conv_from_sparse_dir(self, tmp_path, synth_dir, config_file):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(
            "arch = conv\narch.grid = 32\narch.hidden = 16,8\n"
            "loss = sparse_masked\ntrain.max_epochs = 2\ntrain.seed = 5\n"
        )
        out = tmp_path / "convrun"
        assert run("train", "--sparse", synth_dir, "--config", cfg, "--out-dir", out) == 0
        assert (out / "checkpoint.aur").exists()

    def test_conv_normalization_fit_once(self, tmp_path, synth_dir, monkeypatch):
        calls = []
        fit = I.Normalization.fit

        def counting(cls, rows):
            calls.append(rows.shape)
            return fit(rows)

        monkeypatch.setattr(I.Normalization, "fit", classmethod(counting))
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(
            "arch = conv\narch.grid = 32\narch.hidden = 16,8\n"
            "loss = sparse_masked\ntrain.max_epochs = 1\ntrain.seed = 5\n"
        )
        out = tmp_path / "convrun"
        assert run("train", "--sparse", synth_dir, "--config", cfg, "--out-dir", out) == 0
        assert len(calls) == 1
        meta = load_checkpoint(out / "checkpoint.aur").meta
        assert len(meta["normalization"]["mean"]) == calls[0][1]


    def test_point_normalization_fit_once_and_not_in_features(
        self, tmp_path, monkeypatch, synth_dir, config_file
    ):
        calls = []
        fit = I.Normalization.fit

        def counting(cls, rows):
            calls.append(rows.shape)
            return fit(rows)

        monkeypatch.setattr(I.Normalization, "fit", classmethod(counting))
        table = tmp_path / "t.aft"
        argv = ("--drivers", synth_dir / "drivers.csv", "--obs", synth_dir / "observations.csv")
        assert run("features", *argv, "--config", config_file, "--out", table) == 0
        assert calls == []
        out = tmp_path / "run"
        assert run("train", "--features", table, "--config", config_file, "--out-dir", out) == 0
        assert len(calls) == 1
        meta = load_checkpoint(out / "checkpoint.aur").meta
        assert len(meta["normalization"]["mean"]) == calls[0][1]

    def test_sparse_rejects_holdout_sat_id(self, tmp_path, capsys, synth_dir):
        """The conv samples composite every satellite, so no satellite can be held out."""
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("arch = conv\narch.grid = 32\nloss = sparse_masked\nholdout.sat_id = 0\n")
        out = tmp_path / "run"
        assert run("train", "--sparse", synth_dir, "--config", cfg, "--out-dir", out) == 2
        assert "holdout.sat_id" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "t_end,message", [("1", "selects no rows"), ("1e9", "empty train")], ids=["no_val", "no_train"]
    )
    @pytest.mark.parametrize("source", ["--features", "--sparse"])
    def test_empty_split_leaves_no_out_dir(
        self, tmp_path, capsys, synth_dir, features_file, source, t_end, message
    ):
        cfg = tmp_path / "empty.cfg"
        arch = "arch = conv\narch.grid = 32\nloss = sparse_masked\n" if source == "--sparse" else ""
        cfg.write_text(f"{arch}holdout.t_start = 0\nholdout.t_end = {t_end}\n")
        data = synth_dir if source == "--sparse" else features_file
        out = tmp_path / "run"
        assert run("train", source, data, "--config", cfg, "--out-dir", out) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "eflux,cause",
        [((1e9, 1e9, 1e9), "degenerate target range (min == max)"),
         ((1e9, 2e9), "need at least two training targets")],
        ids=["one_value", "one_row"],
    )
    def test_dist_without_a_target_range_leaves_no_out_dir(self, tmp_path, capsys, synth_dir, eflux, cause):
        """The holdout takes the last row, so the training targets are one
        value repeated, or a single row."""
        obs = tmp_path / "obs.csv"
        obs.write_text("t,sat_id,mlat,mlt,eflux\n" + "".join(
            f"{30000 + 600 * i},0,60,6,{e!r}\n" for i, e in enumerate(eflux)))
        cfg = tmp_path / "dist.cfg"
        cfg.write_text("loss = dist\nfeatures.threshold = 1e12\narch.hidden = 8\ntrain.max_epochs = 1\n")
        table = tmp_path / "t.aft"
        drivers = synth_dir / "drivers.csv"
        assert run("features", "--drivers", drivers, "--obs", obs, "--config", cfg, "--out", table) == 0
        out = tmp_path / "run"
        assert run("train", "--features", table, "--config", cfg, "--out-dir", out) == 3
        assert f"data error: loss = dist needs two distinct training targets: {cause}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_end", ["400000", "500000"], ids=["before", "equal"])
    @pytest.mark.parametrize("source", ["--features", "--sparse"])
    def test_empty_holdout_window_is_config_error(
        self, tmp_path, capsys, synth_dir, features_file, source, t_end
    ):
        """A window with t_end <= t_start selects no rows whatever the data."""
        cfg = tmp_path / "empty.cfg"
        arch = "arch = conv\narch.grid = 32\nloss = sparse_masked\n" if source == "--sparse" else ""
        cfg.write_text(f"{arch}holdout.t_start = 500000\nholdout.t_end = {t_end}\n")
        data = synth_dir if source == "--sparse" else features_file
        out = tmp_path / "run"
        assert run("train", source, data, "--config", cfg, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert "config error: holdout.t_end must exceed holdout.t_start" in err
        assert not out.exists()

    def test_features_and_sparse_hold_out_the_same_window(
        self, tmp_path, monkeypatch, synth_dir, features_file
    ):
        seen = {}
        train_model = T.train_model

        def recording(model, data, config):
            seen[model.variant] = data
            return train_model(model, data, config)

        monkeypatch.setattr(T, "train_model", recording)
        window = "holdout.t_start = 60000\nholdout.t_end = 80000\ntrain.max_epochs = 1\n"
        point_cfg, conv_cfg = tmp_path / "point.cfg", tmp_path / "conv.cfg"
        point_cfg.write_text("arch.hidden = 8\n" + window)
        conv_cfg.write_text("arch = conv\narch.grid = 32\narch.hidden = 8\nloss = sparse_masked\n" + window)
        assert run("train", "--features", features_file, "--config", point_cfg, "--out-dir", tmp_path / "p") == 0
        assert run("train", "--sparse", synth_dir, "--config", conv_cfg, "--out-dir", tmp_path / "c") == 0

        held = [load_checkpoint(tmp_path / run_dir / "checkpoint.aur").meta["holdout"] for run_dir in "pc"]
        assert held == [
            {"sat_id": 0, "t_start": 60000.0, "t_end": 80000.0},
            {"sat_id": None, "t_start": 60000.0, "t_end": 80000.0},
        ]
        (train, val), (train_s, val_s) = seen["baseline"], seen["conv"]

        def inside(t):
            return (t >= 60000.0) & (t < 80000.0)

        assert inside(val.t).all() and np.all(val.sat_id == 0) and inside(val_s.t_center).all()
        assert not inside(train.t[train.sat_id == 0]).any() and not inside(train_s.t_center).any()


@pytest.mark.parametrize("loss", LOSS_VARIANTS)
@pytest.mark.parametrize("arch", sorted(ARCH_LOSSES))
def test_arch_loss_pairing(tmp_path, capsys, features_file, synth_dir, arch, loss):
    if loss in ARCH_LOSSES[arch]:
        check_pairing(arch, loss)
        return
    with pytest.raises(ConfigError):
        check_pairing(arch, loss)
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(f"arch = {arch}\narch.grid = 32\nloss = {loss}\n")
    source = ["--sparse", synth_dir] if arch == "conv" else ["--features", features_file]
    assert run("train", *source, "--config", cfg, "--out-dir", tmp_path / "run") == 2
    err = capsys.readouterr().err
    assert f"arch {arch!r}" in err and f"loss {loss!r}" in err
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory, features_file, config_file):
    out = tmp_path_factory.mktemp("trained")
    assert run("train", "--features", features_file, "--config", config_file, "--out-dir", out) == 0
    return out / "checkpoint.aur"


class TestEvalAndMap:
    def test_eval_self_baseline_zero_reduction(self, tmp_path, trained, features_file):
        out = tmp_path / "eval"
        assert (
            run(
                "eval",
                "--checkpoint",
                trained,
                "--features",
                features_file,
                "--baseline-checkpoint",
                trained,
                "--out-dir",
                out,
            )
            == 0
        )
        lines = (out / "tail_reduction.csv").read_text().splitlines()
        assert lines[0] == "percentile,threshold_log10,n,baseline_mae_log10,candidate_mae_log10,reduction_pct"
        for line in lines[1:]:
            assert float(line.split(",")[-1]) == 0.0

    def test_eval_headers(self, tmp_path, trained, features_file):
        out = tmp_path / "eval2"
        assert run("eval", "--checkpoint", trained, "--features", features_file, "--out-dir", out) == 0
        assert (out / "binned_errors.csv").read_text().splitlines()[0] == (
            "bin_lo,bin_hi,count,mae_log10,bias_log10,mae_linear_factor"
        )
        assert (out / "histograms.csv").read_text().splitlines()[0] == (
            "bin_lo,bin_hi,true_count,pred_count,true_frac,pred_frac"
        )
        assert (out / "summary.txt").exists()
        assert (out / "manifest.json").exists()

    def test_eval_summary_hashes_the_loss_spec(self, tmp_path, trained, features_file):
        out = tmp_path / "eval3"
        assert run("eval", "--checkpoint", trained, "--features", features_file, "--out-dir", out) == 0
        summary = dict(line.split(": ", 1) for line in (out / "summary.txt").read_text().splitlines())
        assert "config_sha256" not in summary
        spec = load_checkpoint(trained).meta["loss"]
        canonical = "\n".join(f"{k}={spec[k]}" for k in sorted(spec))
        assert summary["loss_sha256"] == hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def test_eval_missing_checkpoint(self, tmp_path, features_file):
        assert (
            run(
                "eval",
                "--checkpoint",
                tmp_path / "nope.aur",
                "--features",
                features_file,
                "--out-dir",
                tmp_path / "x",
            )
            == 3
        )

    def test_eval_missing_baseline_leaves_no_out_dir(self, tmp_path, trained, features_file):
        out = tmp_path / "x"
        argv = ("--checkpoint", trained, "--features", features_file, "--out-dir", out)
        assert run("eval", *argv, "--baseline-checkpoint", tmp_path / "missing.aur") == 3
        assert not out.exists()

    def test_eval_baseline_with_other_holdout_leaves_no_out_dir(
        self, tmp_path, capsys, trained, features_file
    ):
        base = load_checkpoint(trained)
        base.meta["holdout"]["t_start"] -= 3600.0
        save_checkpoint(base, tmp_path / "other.aur")
        out = tmp_path / "x"
        argv = ("--checkpoint", trained, "--features", features_file, "--out-dir", out)
        assert run("eval", *argv, "--baseline-checkpoint", tmp_path / "other.aur") == 3
        assert "holdout differs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("role", ["--checkpoint", "--baseline-checkpoint"])
    def test_eval_checkpoint_without_holdout_leaves_no_out_dir(
        self, tmp_path, capsys, trained, features_file, role
    ):
        model = load_checkpoint(trained)
        del model.meta["holdout"]
        save_checkpoint(model, tmp_path / "no_holdout.aur")
        ckpts = {"--checkpoint": trained, "--baseline-checkpoint": trained, role: tmp_path / "no_holdout.aur"}
        out = tmp_path / "x"
        argv = [a for flag, path in ckpts.items() for a in (flag, path)]
        assert run("eval", *argv, "--features", features_file, "--out-dir", out) == 3
        assert "lacks a complete holdout (missing key 'holdout')" in capsys.readouterr().err
        assert not out.exists()

    def test_map_deterministic(self, tmp_path, trained, synth_dir):
        a = tmp_path / "ma"
        b = tmp_path / "mb"
        for out in (a, b):
            assert (
                run(
                    "map",
                    "--checkpoint",
                    trained,
                    "--drivers",
                    synth_dir / "drivers.csv",
                    "--at",
                    43200,
                    "--out",
                    out,
                )
                == 0
            )
        assert (tmp_path / "ma.csv").read_bytes() == (tmp_path / "mb.csv").read_bytes()
        assert (tmp_path / "ma.pgm").read_bytes() == (tmp_path / "mb.pgm").read_bytes()

    def test_point_map_ignores_legacy_grid_key(self, tmp_path, trained, synth_dir):
        model = load_checkpoint(trained)
        assert "grid" not in model.meta
        model.meta["grid"] = 32
        save_checkpoint(model, tmp_path / "legacy.aur")
        drivers = synth_dir / "drivers.csv"
        for ckpt, out in ((trained, "m"), (tmp_path / "legacy.aur", "legacy")):
            argv = ("--checkpoint", ckpt, "--drivers", drivers, "--at", 43200, "--out", tmp_path / out)
            assert run("map", *argv) == 0
        grid = (tmp_path / "legacy.csv").read_text().splitlines()
        assert len(grid) == 128 and len(grid[0].split(",")) == 128
        assert (tmp_path / "legacy.csv").read_bytes() == (tmp_path / "m.csv").read_bytes()

    def test_map_out_of_range(self, tmp_path, trained, synth_dir):
        assert (
            run(
                "map",
                "--checkpoint",
                trained,
                "--drivers",
                synth_dir / "drivers.csv",
                "--at",
                9e9,
                "--out",
                tmp_path / "m",
            )
            == 3
        )

    @pytest.mark.parametrize("at", ["nan", "inf", "-inf", "-1e400"])
    def test_map_non_finite_time_is_out_of_range(self, tmp_path, capsys, trained, synth_dir, at):
        argv = ("--checkpoint", trained, "--drivers", synth_dir / "drivers.csv", "--at", at)
        assert run("map", *argv, "--out", tmp_path / "m") == 3
        assert f"timestamp {float(at):g} outside driver range" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists() and not (tmp_path / "m.pgm").exists()

    def test_map_conv_model(self, tmp_path, synth_dir):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(
            "arch = conv\narch.grid = 32\narch.hidden = 16,8\n"
            "loss = sparse_masked\ntrain.max_epochs = 1\ntrain.seed = 2\n"
        )
        out = tmp_path / "convrun"
        assert run("train", "--sparse", synth_dir, "--config", cfg, "--out-dir", out) == 0
        assert (
            run(
                "map",
                "--checkpoint",
                out / "checkpoint.aur",
                "--drivers",
                synth_dir / "drivers.csv",
                "--at",
                43200,
                "--out",
                tmp_path / "cm",
            )
            == 0
        )
        grid = [l.split(",") for l in (tmp_path / "cm.csv").read_text().splitlines()]
        assert len(grid) == 32 and len(grid[0]) == 32


class TestContainerFaults:
    @pytest.mark.parametrize("swap", ["checkpoint_as_features", "cache_as_checkpoint"])
    def test_wrong_kind_names_both_kinds(self, tmp_path, capsys, trained, features_file, swap):
        out = tmp_path / "out"
        if swap == "checkpoint_as_features":
            argv = ("train", "--features", trained, "--out-dir", out)
            expected = "holds a checkpoint, expected a feature cache"
        else:
            argv = ("eval", "--checkpoint", features_file, "--features", features_file, "--out-dir", out)
            expected = "holds a feature cache, expected a checkpoint"
        assert run(*argv) == 3
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_cache_with_normalization_arrays_asks_for_rebuild(
        self, tmp_path, capsys, trained, features_file
    ):
        """Caches written before the normalization arrays were dropped."""
        old = tmp_path / "old.aft"
        old.write_bytes(cache_bytes_container(I.read_table_cache(features_file), normalization=True))
        out = tmp_path / "out"
        for argv in (("train", "--features", old), ("eval", "--checkpoint", trained, "--features", old)):
            assert run(*argv, "--out-dir", out) == 3
            assert "re-run `auroracast features`" in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_version_is_rejected(self, tmp_path, capsys, features_file):
        raw = bytearray(features_file.read_bytes())
        at = raw.index(b'"version":1}')
        raw[at : at + 12] = b'"version":7}'
        raw[-4:] = struct.pack("<I", zlib.crc32(raw[:-4]))
        path = tmp_path / "v7.aft"
        path.write_bytes(bytes(raw))
        assert run("train", "--features", path, "--out-dir", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "unsupported feature cache version 7" in err
        assert "re-run `auroracast features`" in err


def _world_with_field(src, dst, name, column, value, line=50):
    """A copy of the synth directory ``src`` in which ``value`` replaces
    ``column`` of ``name`` at file line ``line``; returns the changed file."""
    dst.mkdir()
    for fname in ("drivers.csv", "observations.csv"):
        lines = (src / fname).read_text().split("\n")
        if fname == name:
            fields = lines[line - 1].split(",")
            fields[lines[0].split(",").index(column)] = value
            lines[line - 1] = ",".join(fields)
        (dst / fname).write_text("\n".join(lines))
    return dst / name


# file, column, replacement value, and what the reader says about line 50
BAD_FIELDS = {
    "inf_driver": ("drivers.csv", "AE", "inf", "AE must be finite, got inf"),
    "nan_driver_t": ("drivers.csv", "t", "nan", "t must be finite, got nan"),
    "quoted_driver": ("drivers.csv", "Bz", '"1.0"', "quoted fields are not supported"),
    "inf_mlt": ("observations.csv", "mlt", "inf", "mlt must be finite, got inf"),
    "inf_eflux": ("observations.csv", "eflux", "inf", "eflux must be finite, got inf"),
    "nan_obs_t": ("observations.csv", "t", "nan", "t must be finite, got nan"),
    "fractional_sat_id": ("observations.csv", "sat_id", "1.7", "sat_id must be a non-negative integer, got 1.7"),
    "negative_sat_id": ("observations.csv", "sat_id", "-3", "sat_id must be a non-negative integer, got -3.0"),
}
BAD_DRIVERS = sorted(case for case, (name, *_) in BAD_FIELDS.items() if name == "drivers.csv")
BAD_SAT_IDS = ["fractional_sat_id", "negative_sat_id"]


class TestBadInputFields:
    """A field that is not a finite, unquoted number exits 3 naming its file
    and line, before any output is written."""

    def _world(self, tmp_path, synth_dir, case):
        name, column, value, message = BAD_FIELDS[case]
        path = _world_with_field(synth_dir, tmp_path / "world", name, column, value)
        return tmp_path / "world", f"data error: {path}:50: {message}"

    @pytest.mark.parametrize("case", sorted(BAD_FIELDS))
    def test_features(self, tmp_path, capsys, synth_dir, case):
        world, error = self._world(tmp_path, synth_dir, case)
        out = tmp_path / "t.aft"
        argv = ("--drivers", world / "drivers.csv", "--obs", world / "observations.csv", "--out", out)
        assert run("features", *argv) == 3
        assert capsys.readouterr().err.strip() == error
        assert sorted(os.listdir(tmp_path)) == ["world"]

    def test_driver_beyond_float32_writes_no_cache(self, tmp_path, capsys, synth_dir):
        # finite, so the reader takes it, but the float32 feature cache cannot
        world = tmp_path / "world"
        _world_with_field(synth_dir, world, "drivers.csv", "AE", "1e39", line=200)
        argv = ("--drivers", world / "drivers.csv", "--obs", world / "observations.csv")
        assert run("features", *argv, "--out", tmp_path / "t.aft") == 3
        err = capsys.readouterr().err.strip()
        assert re.fullmatch(
            r"data error: build_features: feature AE_lag0m is 1e\+39 at t=\d+\.\d+, "
            r"beyond the float32 range of the feature cache",
            err,
        ), err
        assert sorted(os.listdir(tmp_path)) == ["world"]

    @pytest.mark.parametrize("case", BAD_DRIVERS + BAD_SAT_IDS)
    def test_train_sparse(self, tmp_path, capsys, synth_dir, case):
        world, error = self._world(tmp_path, synth_dir, case)
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("arch = conv\narch.grid = 32\nloss = sparse_masked\n")
        assert run("train", "--sparse", world, "--config", cfg, "--out-dir", tmp_path / "run") == 3
        assert capsys.readouterr().err.strip() == error
        assert sorted(os.listdir(tmp_path)) == ["conv.cfg", "world"]

    @pytest.mark.parametrize("case", BAD_DRIVERS)
    def test_map(self, tmp_path, capsys, trained, synth_dir, case):
        world, error = self._world(tmp_path, synth_dir, case)
        argv = ("--checkpoint", trained, "--drivers", world / "drivers.csv", "--at", 43200)
        assert run("map", *argv, "--out", tmp_path / "m") == 3
        assert capsys.readouterr().err.strip() == error
        assert sorted(os.listdir(tmp_path)) == ["world"]

    @pytest.mark.parametrize("name", ["drivers.csv", "observations.csv"])
    def test_repeated_header_column(self, tmp_path, capsys, synth_dir, name):
        world = tmp_path / "world"
        world.mkdir()
        for fname in ("drivers.csv", "observations.csv"):
            lines = (synth_dir / fname).read_text().splitlines()
            if fname == name:  # repeat the first column at the end
                lines = [line + "," + line.split(",")[0] for line in lines]
            (world / fname).write_text("\n".join(lines) + "\n")
        argv = ("--drivers", world / "drivers.csv", "--obs", world / "observations.csv")
        assert run("features", *argv, "--out", tmp_path / "t.aft") == 3
        error = f"data error: {world / name}: column t appears twice in the header"
        assert capsys.readouterr().err.strip() == error
        assert sorted(os.listdir(tmp_path)) == ["world"]


def test_memory_error_is_resource_exit_code(tmp_path, monkeypatch, capsys):
    request = "Unable to allocate 8.40 GiB for an array with shape (703, 4, 134, 134, 7, 7)"

    def exhausted(args):
        raise MemoryError(request)

    monkeypatch.setattr(cli, "cmd_synth", exhausted)
    assert run("synth", "--out-dir", tmp_path, "--days", 1.0) == 5
    err = capsys.readouterr().err
    assert err.startswith("resource error: synth")
    assert request in err


class TestConfigValues:
    """A bad value exits 2 naming its key, whichever command reads the key."""

    @pytest.mark.parametrize(
        "command, line",
        [
            ("train", "arch.dropout = x"),
            ("train", "holdout.sat_id = x"),
            ("train", "holdout.t_start = x"),
            ("features", "features.percentile = x"),
            ("features", "features.threshold = x"),
            ("features", "features.percentile = 150"),
            ("features", "features.variables = Bz,Bz"),
            ("synth", "world.t0 = nan"),
            ("train", "train.seed = -1"),
            ("train", "arch.grid = x"),
            ("train", "world.n_sats = x"),
        ],
    )
    def test_bad_value_exits_2_and_leaves_no_output(
        self, tmp_path, capsys, synth_dir, features_file, command, line
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        if command == "synth":
            argv = ("synth", "--out-dir", out, "--days", 1)
        elif command == "features":
            drivers, obs = synth_dir / "drivers.csv", synth_dir / "observations.csv"
            argv = ("features", "--drivers", drivers, "--obs", obs, "--out", out)
        else:
            argv = ("train", "--features", features_file, "--out-dir", out)
        assert run(*argv, "--config", cfg) == 2
        key = line.split("=")[0].strip()
        assert f"bad value for {key}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]

    @pytest.mark.parametrize("arch", sorted(ARCH_LOSSES))
    def test_empty_hidden_list_exits_2(self, tmp_path, capsys, synth_dir, features_file, arch):
        """``arch.hidden = ,`` names no width: rejected for every architecture,
        not read as the point models' default trunk or as no conv trunk."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"arch = {arch}\narch.grid = 32\narch.hidden = ,\n")
        source = ["--sparse", synth_dir] if arch == "conv" else ["--features", features_file]
        assert run("train", *source, "--config", cfg, "--out-dir", tmp_path / "out") == 2
        assert "bad value for arch.hidden: ','" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]

    @pytest.mark.parametrize("overlap", [32, 40])
    def test_overlap_of_the_grid_width_exits_2(self, tmp_path, capsys, synth_dir, overlap):
        """The periodic MLT pad wraps ``overlap`` columns of the grid."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"arch = conv\narch.grid = 32\narch.overlap = {overlap}\nloss = sparse_masked\n")
        assert run("train", "--sparse", synth_dir, "--config", cfg, "--out-dir", tmp_path / "out") == 2
        assert f"config error: overlap {overlap} must be smaller than the grid size 32" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, features_file, command):
        out = tmp_path / "out"
        if command == "synth":
            argv = ("synth", "--out-dir", out, "--days", 1, "--seed", -1)
        else:
            argv = ("train", "--features", features_file, "--out-dir", out, "--seed", -1)
        assert run(*argv) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()


def test_threshold_drops_the_same_rows_for_features_and_sparse(tmp_path, monkeypatch, synth_dir):
    eflux = np.loadtxt(synth_dir / "observations.csv", delimiter=",", skiprows=1, usecols=4)
    threshold = float(np.percentile(eflux, 90))
    cfg = tmp_path / "cut.cfg"
    cfg.write_text(
        f"features.threshold = {threshold!r}\n"
        "arch = conv\narch.grid = 32\narch.hidden = 8\nloss = sparse_masked\ntrain.max_epochs = 1\n"
    )
    kept = []
    clean = cli.I.clean_targets

    def recording(*args, **kwargs):
        obs, report = clean(*args, **kwargs)
        kept.append((obs.t, obs.sat_id, report.threshold, report.n_dropped_outlier))
        return obs, report

    monkeypatch.setattr(cli.I, "clean_targets", recording)
    drivers, obs = synth_dir / "drivers.csv", synth_dir / "observations.csv"
    argv = ("--config", cfg)
    assert run("features", "--drivers", drivers, "--obs", obs, "--out", tmp_path / "t.aft", *argv) == 0
    assert run("train", "--sparse", synth_dir, "--out-dir", tmp_path / "conv", *argv) == 0
    (t_a, sat_a, thr_a, n_a), (t_b, sat_b, thr_b, n_b) = kept
    assert thr_a == thr_b == threshold
    assert n_a == n_b > 0
    assert np.array_equal(t_a, t_b) and np.array_equal(sat_a, sat_b)


class TestEvalWidths:
    """eval refuses a checkpoint whose feature width is not the table's."""

    @pytest.fixture(scope="class")
    def narrow(self, tmp_path_factory, synth_dir, config_file):
        root = tmp_path_factory.mktemp("narrow")
        cfg = root / "narrow.cfg"
        cfg.write_text(config_file.read_text() + "features.variables = Bz,Vsw\n")
        drivers, obs = synth_dir / "drivers.csv", synth_dir / "observations.csv"
        table = root / "table.aft"
        assert run("features", "--drivers", drivers, "--obs", obs, "--config", cfg, "--out", table) == 0
        assert run("train", "--features", table, "--config", cfg, "--out-dir", root / "run") == 0
        return table, root / "run" / "checkpoint.aur"

    @pytest.fixture(scope="class")
    def swapped(self, tmp_path_factory, synth_dir, config_file):
        """A checkpoint of another layout of the narrow table's width, 23."""
        root = tmp_path_factory.mktemp("swapped")
        cfg = root / "swapped.cfg"
        cfg.write_text(config_file.read_text() + "features.variables = AE,AL\n")
        drivers, obs = synth_dir / "drivers.csv", synth_dir / "observations.csv"
        table = root / "table.aft"
        assert run("features", "--drivers", drivers, "--obs", obs, "--config", cfg, "--out", table) == 0
        assert run("train", "--features", table, "--config", cfg, "--out-dir", root / "run") == 0
        return root / "run" / "checkpoint.aur"

    def test_checkpoint_of_another_layout_is_data_error(self, tmp_path, capsys, narrow, swapped):
        table, _ = narrow
        out = tmp_path / "x"
        assert run("eval", "--checkpoint", swapped, "--features", table, "--out-dir", out) == 3
        err = capsys.readouterr().err
        assert f"{table}: feature layout is not the one {swapped} was trained on" in err
        assert not out.exists()

    def test_baseline_of_another_layout_is_data_error(self, tmp_path, capsys, narrow, swapped):
        table, narrow_ckpt = narrow
        argv = ("eval", "--checkpoint", narrow_ckpt, "--features", table, "--out-dir")
        assert run(*argv, tmp_path / "alone") == 0
        out = tmp_path / "x"
        assert run(*argv, out, "--baseline-checkpoint", swapped) == 3
        err = capsys.readouterr().err
        assert f"{table}: feature layout is not the one {swapped} was trained on" in err
        assert not out.exists()

    def test_point_checkpoint_on_narrow_table_is_data_error(self, tmp_path, capsys, trained, narrow):
        table, _ = narrow
        out = tmp_path / "x"
        assert run("eval", "--checkpoint", trained, "--features", table, "--out-dir", out) == 3
        err = capsys.readouterr().err
        assert "normalizes 133 features" in err and "has 23" in err
        assert not out.exists()

    def test_narrow_baseline_is_data_error(self, tmp_path, capsys, trained, features_file, narrow):
        _, narrow_ckpt = narrow
        out = tmp_path / "x"
        argv = ("--checkpoint", trained, "--features", features_file, "--out-dir", out)
        assert run("eval", *argv, "--baseline-checkpoint", narrow_ckpt) == 3
        err = capsys.readouterr().err
        assert "normalizes 23 features" in err and "has 133" in err
        assert not out.exists()

    def test_short_normalization_is_data_error(self, tmp_path, capsys, trained, features_file, synth_dir):
        """A checkpoint that normalizes 132 features for a 133-wide model."""
        model = load_checkpoint(trained)
        for stat in model.meta["normalization"].values():
            stat.pop()
        bad = tmp_path / "short.aur"
        save_checkpoint(model, bad)
        out = tmp_path / "x"
        commands = (
            ("eval", "--checkpoint", bad, "--features", features_file, "--out-dir", out),
            ("map", "--checkpoint", bad, "--drivers", synth_dir / "drivers.csv", "--at", 43200, "--out", out),
        )
        for argv in commands:
            assert run(*argv) == 3
            assert "normalizes 132 features, the model takes 133" in capsys.readouterr().err
            assert not out.exists() and not (tmp_path / "x.csv").exists()

    def test_unknown_schema_variable_is_data_error(self, tmp_path, capsys, trained, features_file, synth_dir):
        """A checkpoint whose feature layout names a variable the drivers lack."""
        model = load_checkpoint(trained)
        model.meta["schema"]["variables"][4] = "Kp"
        bad = tmp_path / "kp.aur"
        save_checkpoint(model, bad)
        out = tmp_path / "x"
        commands = (
            ("eval", "--checkpoint", bad, "--features", features_file, "--out-dir", out),
            ("map", "--checkpoint", bad, "--drivers", synth_dir / "drivers.csv", "--at", 43200, "--out", out),
        )
        for argv in commands:
            assert run(*argv) == 3
            err = capsys.readouterr().err
            assert "data error: checkpoint metadata holds no valid feature schema (ValueError(" in err
            assert "unknown driver variable 'Kp'" in err
            assert not out.exists() and not (tmp_path / "x.csv").exists()

    def test_conv_baseline_is_config_error(self, tmp_path, capsys, trained, features_file, synth_dir):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("arch = conv\narch.grid = 32\narch.hidden = 8\nloss = sparse_masked\n"
                       "train.max_epochs = 1\n")
        conv = tmp_path / "conv"
        assert run("train", "--sparse", synth_dir, "--config", cfg, "--out-dir", conv) == 0
        out = tmp_path / "x"
        argv = ("--checkpoint", trained, "--features", features_file, "--out-dir", out)
        assert run("eval", *argv, "--baseline-checkpoint", conv / "checkpoint.aur") == 2
        assert "eval scores point models" in capsys.readouterr().err
        assert not out.exists()
