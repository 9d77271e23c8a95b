"""The config key table: every key parsed and checked once, by one parser."""

import pytest

from auroracast import geomodel as G
from auroracast import ingest as I
from auroracast import models as M
from auroracast import train as T
from auroracast.config import KEYS, load_config, parse_values
from auroracast.errors import ConfigError
from auroracast.losses import LossSpec, TailTerm

ACCEPTED_KEYS = {
    *(
        f"world.{name}"
        for name in (
            "n_sats", "cadence_s", "obs_cadence_s", "t0", "oval_center_base",
            "oval_center_activity_drop", "oval_center_mlt_amplitude", "oval_width_base",
            "oval_width_activity_gain", "peak_log_flux_base", "peak_log_flux_activity_gain",
            "polar_background", "subauroral_background", "noise_sigma", "region_kappa",
            "activity_scale", "orbit_period_s", "orbit_precession_h_per_day",
        )
    ),
    "features.percentile", "features.threshold", "features.variables",
    "arch", "arch.hidden", "arch.dropout", "arch.grid", "arch.filters", "arch.kernels",
    "arch.strides", "arch.overlap",
    *(
        f"train.{name}"
        for name in ("lr", "beta1", "beta2", "eps", "batch_size", "max_epochs", "patience", "seed")
    ),
    "holdout.sat_id", "holdout.t_start", "holdout.t_end",
    "loss", "tail.terms", "dist.bins", "multitask.lambda_cce", "sparse.normalize",
}


def test_table_holds_the_accepted_keys():
    assert len(KEYS) == 45
    assert set(KEYS) == ACCEPTED_KEYS


@pytest.mark.parametrize("key", sorted(KEYS))
@pytest.mark.parametrize("text", ["x", "nan", "inf", "-inf"])
def test_malformed_or_non_finite_value_names_the_key(key, text):
    with pytest.raises(ConfigError, match=f"^bad value for {key}: '{text}'"):
        parse_values({key: text})


@pytest.mark.parametrize(
    "key, text",
    [
        ("world.n_sats", "4"),
        ("world.n_sats", "1.5"),
        ("world.cadence_s", "0"),
        ("world.noise_sigma", "-0.1"),
        ("features.percentile", "150"),
        ("features.percentile", "-1"),
        ("features.threshold", "0"),
        ("features.variables", "Bz,Bz"),
        ("features.variables", "Bz,Kp"),
        ("features.variables", ","),
        ("arch", "transformer"),
        ("arch.hidden", "8,0"),
        ("arch.hidden", ","),
        ("arch.hidden", ""),
        ("arch.dropout", "1"),
        ("arch.grid", "0"),
        ("arch.strides", "2"),
        ("arch.kernels", "9,5,3"),
        ("arch.overlap", "-1"),
        ("train.lr", "-1e-3"),
        ("train.beta1", "1"),
        ("train.eps", "0"),
        ("train.batch_size", "0"),
        ("train.seed", "-1"),
        ("holdout.sat_id", "-1"),
        ("loss", "huber"),
        ("tail.terms", ""),
        ("tail.terms", "2.5:12,0:13"),
        ("tail.terms", "nan:12"),
        ("tail.terms", "2.5:inf"),
        ("tail.terms", "2.5:12:1"),
        ("dist.bins", "1"),
        ("multitask.lambda_cce", "-1"),
        ("sparse.normalize", "maybe"),
    ],
)
def test_out_of_range_value_names_the_key(key, text):
    with pytest.raises(ConfigError, match=f"^bad value for {key}: "):
        parse_values({key: text})


def test_unknown_key():
    with pytest.raises(ConfigError, match="unknown config keys: world.kp"):
        parse_values({"world.kp": "1", "train.lr": "0.1"})


def test_values_are_parsed_once_into_their_types():
    cfg = parse_values(
        {
            "world.n_sats": "3",
            "world.t0": "1.5e3",
            "features.variables": " Bz , Vsw ",
            "arch.hidden": "24, 16,",
            "train.seed": "7",
            "tail.terms": "3:11, 6:12",
            "sparse.normalize": "no",
        }
    )
    assert cfg == {
        "world.n_sats": 3,
        "world.t0": 1500.0,
        "features.variables": ("Bz", "Vsw"),
        "arch.hidden": (24, 16),
        "train.seed": 7,
        "tail.terms": (TailTerm(3.0, 11.0), TailTerm(6.0, 12.0)),
        "sparse.normalize": False,
    }


def test_unset_keys_keep_the_class_and_function_defaults():
    assert G.world_params_from_config({}, seed=0) == G.WorldParams()
    assert I.schema_from_config({}) == I.FeatureSchema()
    assert M.arch_from_config({}, input_width=5) == M.BaselineArch(input_width=5)
    assert M.arch_from_config({"arch": "conv"}, input_width=5) == M.ConvDecoderArch(input_width=5)
    assert T.train_config_from_config({}) == T.TrainConfig()
    assert LossSpec.from_config({}) == LossSpec()


def test_binders_turn_class_checks_into_config_errors():
    with pytest.raises(ConfigError, match="stride product"):
        M.arch_from_config(parse_values({"arch": "conv", "arch.grid": "30"}), input_width=4)
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        G.world_params_from_config({}, seed=-1)
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        T.train_config_from_config({}, seed_override=-1)


def test_load_config_keeps_the_text_for_hashing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("train.lr = 0.010  # a comment\nloss = tail\n")
    pairs, cfg = load_config(path)
    assert pairs == {"train.lr": "0.010", "loss": "tail"}
    assert cfg == {"train.lr": 0.01, "loss": "tail"}
    assert load_config(None) == ({}, {})
