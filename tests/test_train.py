"""Adam, compositing, training loops, early stopping, and run configs."""

import collections

import numpy as np
import pytest

from auroracast import losses as L
from auroracast import models as M
from auroracast import train as T
from auroracast.autodiff import Tape, Tensor
from auroracast.config import parse_config_text, parse_values
from auroracast.errors import ConfigError, DataError
from auroracast.geomodel import (
    GridSpec,
    WorldParams,
    gen_drivers,
    sample_traces,
)
from auroracast.ingest import FeatureSchema, Holdout, build_features, history_feature_rows
from auroracast.losses import LossSpec, sparse_masked_loss_op
from auroracast.train import (
    AdamState,
    TrainConfig,
    adam_step,
    build_sparse_samples,
    train_config_from_config,
    train_model,
)

from _memory import peak_bytes, traced_bytes
from _reference import (
    cell_of,
    composite_add_at,
    composite_window,
    dense_batch,
    obs_table,
    sparse_masked_loss_dense,
)


def _obs(t, mlat=60.0, mlt=6.0, eflux=1e10, sat=0):
    return (t, sat, mlat, mlt, eflux, None)


class TestAdam:
    def _params(self):
        return {"w": Tensor(np.array([1.0, -2.0]))}

    def test_zero_grads_leave_params_and_decay_moments(self):
        params = self._params()
        before = params["w"].data.copy()
        state = AdamState(step=0, m={"w": np.array([1.0, 1.0])}, v={"w": np.array([4.0, 4.0])})
        adam_step(params, {"w": np.zeros(2)}, state, TrainConfig(lr=0.01))
        # m decays toward zero, v decays toward zero, update follows m-hat
        assert np.all(np.abs(state.m["w"]) < 1.0)
        assert np.all(state.v["w"] < 4.0)
        state2 = AdamState()
        params2 = self._params()
        adam_step(params2, {"w": np.zeros(2)}, state2, TrainConfig(lr=0.01))
        assert np.array_equal(params2["w"].data, before)

    def test_single_step_matches_hand_computation(self):
        config = TrainConfig(lr=1e-3)
        params = {"w": Tensor(np.zeros(1))}
        g = np.array([0.4])
        state = AdamState()
        adam_step(params, {"w": g}, state, config)
        m_hat = (1 - config.beta1) * g / (1 - config.beta1)
        v_hat = (1 - config.beta2) * g * g / (1 - config.beta2)
        expect = -config.lr * m_hat / (np.sqrt(v_hat) + config.eps)
        assert params["w"].data[0] == pytest.approx(expect[0], rel=1e-12)
        assert params["w"].data[0] == pytest.approx(-config.lr, rel=1e-4)

    def test_params_update_independently(self):
        params = {
            "a": Tensor(np.zeros(1)),
            "b": Tensor(np.zeros(1)),
        }
        state = AdamState()
        adam_step(params, {"a": np.array([1.0]), "b": np.array([0.0])}, state, TrainConfig())
        assert params["a"].data[0] != 0.0
        assert params["b"].data[0] == 0.0

    def test_shape_mismatch(self):
        params = self._params()
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(3)}, AdamState(), TrainConfig())


class TestCompositeWindow:
    SPEC = GridSpec(n_lat=32, n_mlt=32)

    def test_single_observation(self):
        gm = composite_window(obs_table([_obs(1000.0, eflux=1e10)]), 1000.0, self.SPEC)
        assert gm.mask.sum() == 1
        assert gm.values[gm.mask][0] == pytest.approx(10.0)

    def test_same_cell_mean(self):
        obs = obs_table([_obs(990.0, eflux=1e10), _obs(1010.0, eflux=1e12)])
        gm = composite_window(obs, 1000.0, self.SPEC)
        assert gm.mask.sum() == 1
        assert gm.values[gm.mask][0] == pytest.approx(11.0)

    def test_window_is_closed(self):
        obs = obs_table([_obs(850.0), _obs(1150.0), _obs(1151.0, mlat=80.0)])
        gm = composite_window(obs, 1000.0, self.SPEC)
        # both boundary points included, the one outside excluded
        assert gm.mask.sum() == 1  # same cell for the two in-window points

    def test_empty_window(self):
        with pytest.raises(DataError):
            composite_window(obs_table([_obs(0.0)]), 1e6, self.SPEC)

    def test_two_sat_minute_cadence_loop_oracle(self):
        p = WorldParams(seed=21, n_sats=2)
        d = gen_drivers(p, 7200)
        obs = sample_traces(p, d, 60.0)
        t_center = 3600.0
        gm = composite_window(obs, t_center, self.SPEC)
        in_window = obs[np.abs(obs.t - t_center) <= 150.0]
        assert len(in_window) <= 2 * 5
        # loop-oracle mask
        cells = {cell_of(mlat, mlt, self.SPEC) for mlat, mlt in zip(in_window.mlat, in_window.mlt)}
        assert gm.mask.sum() == len(cells)
        for r, c in cells:
            assert gm.mask[r, c]

    def test_build_sparse_samples_counts(self):
        p = WorldParams(seed=22, n_sats=2)
        d = gen_drivers(p, 86400)
        obs = sample_traces(p, d, 60.0)
        schema = FeatureSchema()
        samples, n_empty = build_sparse_samples(d, obs, schema, self.SPEC)
        # centers with full 6 h history: times >= 21600
        expected_centers = int((d.times >= 21600.0).sum())
        assert len(samples) + n_empty == expected_centers
        for s in samples[:10]:
            assert s.target.mask.any()
            assert s.features.shape == (len(schema.global_names),)
        # windows match the one-shot compositor
        probe = samples[5]
        gm = composite_window(obs, probe.t_center, self.SPEC)
        assert np.array_equal(gm.mask, probe.target.mask)
        assert np.allclose(gm.values, probe.target.values)


class TestSparseSamples:
    SPEC = GridSpec()

    @pytest.fixture(scope="class")
    def world(self):
        p = WorldParams(seed=23, n_sats=3)
        d = gen_drivers(p, 86400)
        return d, sample_traces(p, d, 60.0), FeatureSchema()

    def test_csr_matches_add_at_oracle_bitwise(self, world):
        d, obs, schema = world
        samples, n_empty = build_sparse_samples(d, obs, schema, self.SPEC)
        ref, ref_empty = composite_add_at(d, obs, schema, self.SPEC)
        assert n_empty == ref_empty
        assert len(samples) == len(ref) > 200
        for s, (t_center, feats, values, mask) in zip(samples, ref):
            assert s.t_center == t_center
            assert np.array_equal(s.features, feats)
            assert np.array_equal(s.target.mask, mask)
            assert np.array_equal(s.target.values, values)

    def test_csr_layout(self, world):
        d, obs, schema = world
        samples, _ = build_sparse_samples(d, obs, schema, self.SPEC)
        counts = np.diff(samples.offsets)
        assert samples.offsets[0] == 0 and np.all(counts >= 1)
        for i in (0, 7, len(samples) - 1):
            cells = samples.cells[samples.offsets[i] : samples.offsets[i + 1]]
            assert np.all(np.diff(cells) > 0)
            assert np.array_equal(np.flatnonzero(samples[i].target.mask), cells)

    def test_features_are_history_rows_at_the_centers(self, world):
        d, obs, schema = world
        samples, _ = build_sparse_samples(d, obs, schema, self.SPEC)
        expect = history_feature_rows(d, samples.t_center, schema)
        assert samples.features.dtype == expect.dtype
        assert samples.features.shape == expect.shape
        assert samples.features.tobytes() == expect.tobytes()

    def test_subset_keeps_samples(self, world):
        d, obs, schema = world
        samples, _ = build_sparse_samples(d, obs, schema, self.SPEC)
        pick = samples.t_center >= 60000.0
        sub = samples[pick]
        idx = np.flatnonzero(pick)
        assert len(sub) == idx.size
        for j in (0, 3, idx.size - 1):
            a, b = sub[j], samples[int(idx[j])]
            assert a.t_center == b.t_center
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.target.values, b.target.values)
            assert np.array_equal(a.target.mask, b.target.mask)
        values, mask = dense_batch(samples, idx[[2, 0]])
        assert np.array_equal(values[1], sub[0].target.values)
        assert np.array_equal(mask[0], sub[2].target.mask)

    def test_validation_mse_matches_dense_bitwise(self, world):
        d, obs, schema = world
        samples, _ = build_sparse_samples(d, obs, schema, self.SPEC)
        pred = np.random.default_rng(4).normal(9.0, 1.0, (len(samples), 128, 128))
        pred = pred.astype(np.float32)
        values, mask = dense_batch(samples, np.arange(len(samples)))
        observed = pred.reshape(-1)[samples.positions]
        dense = sparse_masked_loss_dense(None, Tensor(pred, dtype=np.float64), values, mask)
        assert L.mse(samples.values, observed) == float(dense.data)

    def test_positions_are_the_dense_mask_cells(self, world):
        d, obs, schema = world
        samples, _ = build_sparse_samples(d, obs, schema, self.SPEC)
        idx = np.random.default_rng(5).permutation(len(samples))[:16]
        whole = np.arange(len(samples))
        for sub, rows in ((samples[idx], idx), (samples, whole)):
            assert np.array_equal(sub.positions, np.flatnonzero(dense_batch(samples, rows)[1]))

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_on_positions_is_the_mask_form_bitwise(self, world, dtype, normalize):
        # a shuffled 16-sample batch, as train_model draws one
        d, obs, schema = world
        samples, _ = build_sparse_samples(d, obs, schema, self.SPEC)
        idx = np.random.default_rng(6).permutation(len(samples))[:16]
        batch = samples[idx]
        values, mask = dense_batch(samples, idx)
        data = np.random.default_rng(7).normal(9.0, 1.0, mask.shape).astype(dtype)
        results = []
        for loss_op, targets in (
            (sparse_masked_loss_op, (batch.positions, batch.values)),
            (sparse_masked_loss_dense, (values, mask)),
        ):
            pred = Tensor(data.copy())
            tape = Tape()
            loss = loss_op(tape, pred, *targets, normalize)
            tape.backward(loss)
            results.append((loss.data, pred.grad))
        (loss, grad), (ref_loss, ref_grad) = results
        assert loss.dtype == grad.dtype == dtype
        assert loss.tobytes() == ref_loss.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_memory_per_sample(self, world):
        d, obs, schema = world
        peak, (samples, _) = peak_bytes(build_sparse_samples, d, obs, schema, self.SPEC)
        assert peak / len(samples) < 16 * 1024


def _point_tables(seed=30, days=2.0, obs_cadence=240.0, n_sats=1):
    p = WorldParams(seed=seed, n_sats=n_sats)
    d = gen_drivers(p, days * 86400)
    obs = sample_traces(p, d, obs_cadence)
    table = build_features(d, obs)
    t_hi = float(table.t.max())
    t_lo = t_hi - 0.25 * (t_hi - float(table.t.min()))
    in_val = Holdout(0, t_lo, t_hi + 1).mask(table.t, table.sat_id)
    return table[~in_val], table[in_val]


class TestTrainPoint:
    def test_lr_zero_leaves_params(self):
        train, val = _point_tables()
        arch = M.BaselineArch(input_width=train.schema.width, hidden=(8,))
        model = M.build_model(arch, seed=0)
        before = model.clone_param_data()
        config = TrainConfig(lr=0.0, max_epochs=2, batch_size=512, seed=1)
        model, history = train_model(model, (train, val), config)
        after = model.clone_param_data()
        for k in before:
            if k != "out.b":
                assert np.array_equal(before[k], after[k])
        # the warm start is the only change: the output bias sits at the mean target
        assert after["out.b"].tolist() == [np.float32(np.mean(train.target))]

    @pytest.mark.parametrize("loss", ["mse", "multitask"])
    def test_setup_holds_no_copy_of_the_inputs(self, loss):
        # batches are normalized as they are drawn, so the setup keeps
        # its Normalization and no float32 copy of the training rows
        train, val = _point_tables()
        arch_cls = M.MultiTaskArch if loss == "multitask" else M.BaselineArch
        model = M.build_model(arch_cls(train.schema.width, (8,)), seed=0)
        _, held, _ = traced_bytes(T._point_setup, model, train, val, LossSpec(loss))
        assert held < train.rows.size  # a quarter of one float32 copy

    @pytest.mark.parametrize("loss", ["mse", "dist", "multitask"])
    def test_heap_trimmed_before_each_validation(self, loss, monkeypatch):
        """Every epoch hands the freed training heap back (``malloc_trim(0)``)
        after its last step and before its validation pass."""
        train, val = _point_tables()
        arch_cls = M.MultiTaskArch if loss == "multitask" else M.BaselineArch
        model = M.build_model(arch_cls(train.schema.width, (8,)), seed=0)
        events, adam, predict = [], T.adam_step, M.predict
        monkeypatch.setattr(T, "adam_step", lambda *a: events.append("step") or adam(*a))
        monkeypatch.setattr(T, "_malloc_trim", lambda pad: events.append(("trim", pad)) or 0)
        monkeypatch.setattr(M, "predict", lambda *a: events.append("validate") or predict(*a))
        config = TrainConfig(max_epochs=3, patience=3, batch_size=512, seed=1, loss=LossSpec(loss))
        _, history = train_model(model, (train, val), config)
        steps = -(-train.n // 512)
        assert len(history.epochs) == 3
        assert events == (["step"] * steps + [("trim", 0), "validate"]) * 3

    def test_warm_started_baseline_near_constant_predictor(self):
        # default arch and Adam settings, 3 epochs: best val MSE over the
        # constant predictor's is 0.99-1.08 for seeds 1-5, and 7-17 with
        # the output bias left at 0
        train, val = _point_tables(seed=1, days=3.0, obs_cadence=60.0, n_sats=3)
        model = M.build_model(M.arch_from_config({}, train.schema.width), seed=1)
        _, history = train_model(model, (train, val), TrainConfig(max_epochs=3, seed=1))
        constant = np.mean((val.target - np.mean(train.target)) ** 2)
        assert history.best_val < 1.5 * constant

    def test_quadratic_toy_validation_decreases(self):
        rng = np.random.default_rng(5)
        n, d = 512, 6
        x = rng.standard_normal((n, d))
        w_true = rng.standard_normal(d)
        y = x @ w_true
        # package the toy problem as feature tables
        from auroracast.ingest import FeatureSchema, FeatureTable

        schema = FeatureSchema(variables=("AE",), lag_minutes=(0.0,), avg_minutes=(30.0,))
        # width is 5 for this schema; rebuild x accordingly
        width = schema.width
        x = rng.standard_normal((n, width))
        y = x @ rng.standard_normal(width)

        def table(rows, targets):
            m = rows.shape[0]
            return FeatureTable(
                schema=schema,
                rows=rows,
                target=targets,
                region=None,
                t=np.arange(m, dtype=float),
                mlat=np.full(m, 60.0),
                mlt=np.zeros(m),
                sat_id=np.zeros(m, dtype=np.int64),
            )

        train = table(x[:384], y[:384])
        val = table(x[384:], y[384:])
        arch = M.BaselineArch(input_width=width, hidden=(16,), dropout_rate=0.0)
        model = M.build_model(arch, seed=2, dtype=np.float64)
        config = TrainConfig(lr=1e-2, max_epochs=6, batch_size=384, seed=3)
        _, history = train_model(model, (train, val), config)
        vals = [v for _, _, v in history.epochs]
        assert vals[1] < vals[0]
        assert vals[2] < vals[1]

    def test_seeded_determinism(self):
        train, val = _point_tables(seed=31)
        arch = M.BaselineArch(input_width=train.schema.width, hidden=(8, 4))
        config = TrainConfig(lr=1e-3, max_epochs=3, batch_size=1024, seed=7)

        def run():
            model = M.build_model(arch, seed=7)
            model, history = train_model(model, (train, val), config)
            return model, history

        m1, h1 = run()
        m2, h2 = run()
        assert h1.epochs == h2.epochs
        for k in m1.params:
            assert np.array_equal(m1.params[k].data, m2.params[k].data)

    def test_early_stopping_returns_best(self):
        train, val = _point_tables(seed=32)
        arch = M.BaselineArch(input_width=train.schema.width, hidden=(8,))
        model = M.build_model(arch, seed=1)
        config = TrainConfig(lr=3e-3, max_epochs=12, patience=3, batch_size=2048, seed=2)
        model, history = train_model(model, (train, val), config)
        vals = [v for _, _, v in history.epochs]
        assert history.best_val == min(vals)
        # reported best params reproduce the recorded best validation loss
        from auroracast.losses import mse

        norm = model.meta["normalization"]
        pred, _ = M.predict_point(model, (val.rows - norm["mean"]) / norm["std"])
        assert mse(val.target, pred) == pytest.approx(history.best_val, rel=1e-6)

    def test_loss_arch_mismatch(self):
        train, val = _point_tables(seed=33)
        arch = M.BaselineArch(input_width=train.schema.width, hidden=(8,))
        model = M.build_model(arch, seed=0)
        config = TrainConfig(loss=LossSpec("multitask"), max_epochs=1)
        with pytest.raises(ConfigError):
            train_model(model, (train, val), config)

    def test_multitask_training_runs(self):
        train, val = _point_tables(seed=34)
        arch = M.MultiTaskArch(input_width=train.schema.width, trunk=(16, 8))
        model = M.build_model(arch, seed=0)
        config = TrainConfig(loss=LossSpec("multitask"), max_epochs=2, batch_size=1024, seed=4)
        model, history = train_model(model, (train, val), config)
        assert len(history.epochs) == 2

    def test_multitask_trains_through_an_underflowed_true_class(self):
        """A class-2 logit 200 below the others gives every region-2 row a
        float32 probability of exactly 0; the cross-entropy from the logits
        stays finite and training runs to the end."""
        train, val = _point_tables(seed=34)
        assert np.any(train.region == 2)
        arch = M.MultiTaskArch(input_width=train.schema.width, trunk=(16, 8))
        model = M.build_model(arch, seed=0)
        model.params["head_class.b"].data[:] = [0.0, 0.0, -200.0]
        config = TrainConfig(loss=LossSpec("multitask"), max_epochs=2, batch_size=1024, seed=4)
        model, history = train_model(model, (train, val), config)
        assert len(history.epochs) == 2
        assert all(np.isfinite([loss, v]).all() for _, loss, v in history.epochs)


class TestTrainConv:
    def _samples(self, seed=40, grid=32):
        p = WorldParams(seed=seed, n_sats=2)
        d = gen_drivers(p, int(1.2 * 86400))
        obs = sample_traces(p, d, 60.0)
        schema = FeatureSchema()
        spec = GridSpec(n_lat=grid, n_mlt=grid)
        samples, _ = build_sparse_samples(d, obs, schema, spec)
        cut = int(0.75 * len(samples))
        return samples[:cut], samples[cut:], schema

    def test_setup_holds_no_copy_of_the_inputs(self):
        train_s, val_s, schema = self._samples()
        arch = M.ConvDecoderArch(input_width=len(schema.global_names), trunk=(8,), n_lat=32, n_mlt=32)
        model = M.build_model(arch, seed=0)
        spec = LossSpec("sparse_masked")
        _, held, _ = traced_bytes(T._conv_setup, model, train_s, val_s, spec)
        assert held < train_s.features.size  # a quarter of one float32 copy

    def test_conv_training_reduces_masked_mse(self):
        train_s, val_s, schema = self._samples()
        arch = M.ConvDecoderArch(
            input_width=len(schema.global_names), trunk=(24, 16), n_lat=32, n_mlt=32
        )
        model = M.build_model(arch, seed=3)
        config = TrainConfig(
            loss=LossSpec("sparse_masked"), lr=2e-3, max_epochs=8, batch_size=16, seed=5
        )
        v = np.stack([s.target.values for s in val_s])
        m = np.stack([s.target.mask for s in val_s])
        from auroracast.ingest import Normalization

        norm = Normalization.fit(np.stack([s.features for s in train_s]))
        x_val = (np.stack([s.features for s in val_s]) - norm.mean) / norm.std
        init_pred = Tensor(M.forward_convdecoder(arch, model.params, x_val).data, dtype=np.float64)
        init_val = float(sparse_masked_loss_dense(None, init_pred, v, m).data)
        model, history = train_model(model, (train_s, val_s), config)
        assert history.best_val < init_val

    def test_normalization_fit_on_train_is_stored(self):
        train_s, val_s, schema = self._samples(seed=43)
        arch = M.ConvDecoderArch(
            input_width=len(schema.global_names), trunk=(8,), n_lat=32, n_mlt=32
        )
        model = M.build_model(arch, seed=0)
        config = TrainConfig(loss=LossSpec("sparse_masked"), max_epochs=1, batch_size=64)
        model, _ = train_model(model, (train_s, val_s), config)
        from auroracast.ingest import Normalization

        norm = Normalization.fit(train_s.features)
        mean, std = norm.mean, norm.std
        assert model.meta["normalization"] == {
            "mean": [float(v) for v in mean],
            "std": [float(v) for v in std],
        }

    def test_validation_is_chunked_and_bit_identical(self, monkeypatch):
        """Validation predicts a bounded chunk of samples at a time: the loss
        equals the single-pass loss bit for bit, and a validation set four
        times larger raises the peak by less than one chunk of grids."""
        from auroracast.ingest import Normalization

        train_s, val_s, schema = self._samples(seed=45, grid=64)
        arch = M.ConvDecoderArch(input_width=len(schema.global_names), trunk=(8,), n_lat=64, n_mlt=64)
        model = M.build_model(arch, seed=0)
        chunk = len(val_s) // 4
        val_s = val_s[: 4 * chunk]  # whole chunks, so both sets run chunks of one size
        padded = arch.filters[1] * (arch.n_lat + 2 * arch.overlap) ** 2
        monkeypatch.setattr(M, "PREDICT_BYTES", chunk * 4 * padded)
        spec = LossSpec("sparse_masked")
        _, _, validate, _ = T._conv_setup(model, train_s, val_s, spec)
        norm = Normalization.from_meta(model.meta["normalization"], arch.input_width)
        single = M.forward_convdecoder(arch, model.params, norm.apply(val_s.features)).data
        expected = L.mse(val_s.values, single.reshape(-1)[val_s.positions])

        forward, batches = M.forward_convdecoder, []

        def counted(arch, params, x, *args):
            batches.append(len(x))
            return forward(arch, params, x, *args)

        monkeypatch.setattr(M, "forward_convdecoder", counted)
        assert validate() == expected
        assert batches == [chunk] * 4

        val4 = val_s[np.tile(np.arange(len(val_s)), 4)]
        _, _, validate4, _ = T._conv_setup(model, train_s, val4, spec)
        peak, _ = peak_bytes(validate)
        peak4, _ = peak_bytes(validate4)
        assert peak4 - peak < chunk * arch.n_lat * arch.n_mlt * 4

    def test_epoch_peaks_at_one_step_or_validation_not_both(self):
        """Backward consumes the step's tape, so validation after an epoch's
        last step runs with no activation or gradient of that step alive.
        One conv epoch then peaks below the larger of one step's peak and
        validate()'s peak, plus a slack of 16x the parameter bytes for Adam's
        two moments, the best-epoch copy and the update's temporaries. A
        tape that kept its records held the last step's activations and
        gradients through validation, on top of validate()'s peak."""
        train_s, val_s, schema = self._samples(seed=46)
        arch = M.ConvDecoderArch(input_width=len(schema.global_names), trunk=(8,), n_lat=32, n_mlt=32)
        spec = LossSpec("sparse_masked")
        config = TrainConfig(loss=spec, max_epochs=1, batch_size=16, seed=7)
        model = M.build_model(arch, seed=0)
        _, step_loss, validate, _ = T._conv_setup(model, train_s, val_s, spec)

        def step():
            tape = Tape()
            tape.backward(step_loss(tape, np.arange(config.batch_size), np.random.default_rng(0)))

        step_peak, _ = peak_bytes(step)
        val_peak, _ = peak_bytes(validate)
        model = M.build_model(arch, seed=0)
        epoch_peak, _ = peak_bytes(train_model, model, (train_s, val_s), config)
        slack = 16 * sum(p.data.nbytes for p in model.params.values())
        assert len(train_s) > 4 * config.batch_size
        assert epoch_peak < max(step_peak, val_peak) + slack, (
            f"epoch {epoch_peak}, step {step_peak}, validate {val_peak}, slack {slack}"
        )

    @pytest.fixture(scope="class")
    def grid128(self):
        """A conv setup on the 128x128 grid: 1.2 days, 2 satellites."""
        train_s, val_s, schema = self._samples(seed=48, grid=128)
        arch = M.ConvDecoderArch(input_width=len(schema.global_names))
        model = M.build_model(arch, seed=0)
        _, step_loss, validate, _ = T._conv_setup(model, train_s, val_s, LossSpec("sparse_masked"))
        return arch, step_loss, validate, len(val_s)

    def test_step_peaks_below_one_dense_stack(self, grid128):
        """One training step, forward and backward, at batch 16 on 128x128
        peaks below one dense [16, 4, 128, 128] float32 stack (4.2 MB):
        deconv2 onward runs at the observed cells' receptive field. Run on
        whole grids, the step peaked at 42 MB."""
        arch, step_loss, _, _ = grid128

        def step():
            tape = Tape()
            tape.backward(step_loss(tape, np.arange(16), np.random.default_rng(0)))

        step()
        peak, _ = peak_bytes(step)
        stack = 16 * arch.filters[1] * arch.n_lat * arch.n_mlt * 4
        assert peak < stack, f"peak {peak / stack:.2f}x one dense stack"

    def test_validation_peaks_below_half_a_dense_stack(self, grid128):
        """One validation pass on 128x128 peaks below half a dense
        [n_val, 4, 128, 128] float32 stack: it predicts the values at the
        observed cells only. Run on whole grids, it peaked at 2.1 stacks."""
        arch, _, validate, n_val = grid128
        peak, _ = peak_bytes(validate)
        stack = n_val * arch.filters[1] * arch.n_lat * arch.n_mlt * 4
        assert peak < stack / 2, f"peak {peak / stack:.2f}x one dense stack"

    def test_training_runs_no_dense_correlation(self, monkeypatch):
        """A training step runs the final conv on its batch's observed
        cells' windows only, and so does validation on the validation
        samples' cells: every conv2d input in train_model is a
        [cells, 4, 7, 7] window stack, never the padded [n, 4, 38, 38]
        grid the dense correlation reads."""
        from auroracast import autodiff as ad

        shapes = []
        conv2d = ad.conv2d

        def recorded_conv2d(x, *args):
            shapes.append(x.shape)
            return conv2d(x, *args)

        monkeypatch.setattr(ad, "conv2d", recorded_conv2d)
        train_s, val_s, schema = self._samples(seed=47)
        arch = M.ConvDecoderArch(input_width=len(schema.global_names), trunk=(8,), n_lat=32, n_mlt=32)
        config = TrainConfig(loss=LossSpec("sparse_masked"), max_epochs=2, batch_size=16, seed=1)
        _, history = train_model(M.build_model(arch, seed=0), (train_s, val_s), config)
        assert len(history.epochs) == 2
        steps = -(-len(train_s) // 16)
        assert steps > 1
        assert len(shapes) == steps * 2 + 2
        window = (arch.filters[1], arch.final_kernel, arch.final_kernel)
        assert all(len(shape) == 4 and shape[1:] == window for shape in shapes)

    def test_wrong_loss_rejected(self):
        train_s, val_s, schema = self._samples(seed=42)
        arch = M.ConvDecoderArch(
            input_width=len(schema.global_names), trunk=(8,), n_lat=32, n_mlt=32
        )
        model = M.build_model(arch, seed=0)
        with pytest.raises(ConfigError):
            train_model(model, (train_s, val_s), TrainConfig(loss=LossSpec("mse")))

    def test_loop_looks_up_patched_names_at_call_time(self, monkeypatch):
        counts = collections.Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        train, val = _point_tables(seed=35)
        train_s, val_s, schema = self._samples(seed=44)
        for module, name in (
            (T, "adam_step"),
            (L, "mse_op"),
            (L, "sparse_masked_loss_op"),
            (M, "forward_baseline"),
            (M, "forward_convdecoder"),
        ):
            count(module, name)

        arch = M.BaselineArch(input_width=train.schema.width, hidden=(8,))
        config = TrainConfig(max_epochs=2, batch_size=256, seed=1)
        _, history = train_model(M.build_model(arch, seed=0), (train, val), config)
        assert len(history.epochs) == 2
        steps = 2 * -(-train.n // 256)
        assert counts["adam_step"] == counts["mse_op"] == steps
        assert counts["forward_baseline"] == steps + 2

        counts.clear()
        arch = M.ConvDecoderArch(
            input_width=len(schema.global_names), trunk=(8,), n_lat=32, n_mlt=32
        )
        config = TrainConfig(loss=LossSpec("sparse_masked"), max_epochs=2, batch_size=16, seed=1)
        _, history = train_model(M.build_model(arch, seed=0), (train_s, val_s), config)
        assert len(history.epochs) == 2
        steps = 2 * -(-len(train_s) // 16)
        assert counts["adam_step"] == steps
        assert counts["sparse_masked_loss_op"] == steps
        assert counts["forward_convdecoder"] == steps + 2


class TestRunConfig:
    def test_parse_and_build(self):
        text = """
        # comment
        train.lr = 0.01
        train.max_epochs = 5
        loss = tail
        tail.terms = 3:11, 6:12
        """
        cfg = parse_config_text(text)
        config = train_config_from_config(parse_values(cfg))
        assert config.lr == 0.01
        assert config.max_epochs == 5
        assert config.loss.variant == "tail"
        assert config.loss.tail_terms[1].y_r == 12.0

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a=1\na=2")

    def test_not_key_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            train_config_from_config(parse_values({"train.lr": "fast"}))

    def test_seed_override(self):
        config = train_config_from_config(parse_values({"train.seed": "3"}), seed_override=99)
        assert config.seed == 99

    def test_resolved_batch_sizes(self):
        config = TrainConfig()
        assert config.resolved_batch_size("baseline") == 4096
        assert config.resolved_batch_size("conv") == 16
        assert TrainConfig(batch_size=64).resolved_batch_size("conv") == 64
