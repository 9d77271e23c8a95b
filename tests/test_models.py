"""Architecture forwards, invariances, and checkpoint round-trips."""

from dataclasses import asdict

import numpy as np
import pytest

from _gradcheck import probe_gradcheck
from auroracast import autodiff as ad
from auroracast import container
from auroracast import models as M
from auroracast.autodiff import Tape, Tensor
from auroracast.config import parse_values
from auroracast.errors import ConfigError, DataError
from auroracast.ingest import Normalization
from auroracast.losses import mse_op, sparse_masked_loss_op


SMALL_CONV = dict(trunk=(24, 16), n_lat=32, n_mlt=32)


def _zero_params(arch):
    return {name: Tensor(np.zeros(shape))
            for name, shape in M.param_shapes(arch).items()}


class TestBaseline:
    def test_default_widths(self):
        arch = M.BaselineArch(input_width=133)
        assert arch.hidden == (266, 64, 32, 256, 1024, 256, 64)

    def test_zero_weights_output_bias(self):
        arch = M.BaselineArch(input_width=5, hidden=(8, 4))
        params = _zero_params(arch)
        params["out.b"].data[:] = 3.5
        y = M.forward_baseline(arch, params, np.random.default_rng(0).standard_normal((7, 5)))
        assert np.allclose(y.data, 3.5)

    def test_identical_rows_identical_outputs(self):
        arch = M.BaselineArch(input_width=6, hidden=(10, 5))
        params = M.init_params(arch, seed=1, dtype=np.float64)
        row = np.random.default_rng(1).standard_normal(6)
        y = M.forward_baseline(arch, params, np.stack([row, row]))
        assert y.data[0] == y.data[1]

    def test_width_mismatch(self):
        arch = M.BaselineArch(input_width=6, hidden=(4,))
        params = M.init_params(arch, seed=0)
        with pytest.raises(ValueError):
            M.forward_baseline(arch, params, np.zeros((2, 5)))

    def test_batch_permutation_equivariance(self):
        arch = M.BaselineArch(input_width=4, hidden=(12, 6))
        params = M.init_params(arch, seed=2, dtype=np.float64)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 4))
        perm = rng.permutation(9)
        y = M.forward_baseline(arch, params, x).data
        y_p = M.forward_baseline(arch, params, x[perm]).data
        assert np.array_equal(y_p, y[perm])

    def test_inference_bitwise_repeatable(self):
        arch = M.BaselineArch(input_width=4, hidden=(8,))
        params = M.init_params(arch, seed=4, dtype=np.float64)
        x = np.random.default_rng(5).standard_normal((3, 4))
        a = M.forward_baseline(arch, params, x).data
        b = M.forward_baseline(arch, params, x).data
        assert np.array_equal(a, b)

    def test_gradcheck_probe_weights(self):
        arch = M.BaselineArch(input_width=5, hidden=(7, 4))
        params = M.init_params(arch, seed=6, dtype=np.float64)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 5))
        y_true = rng.standard_normal(6)

        def loss_value():
            pred = M.forward_baseline(arch, params, x)
            return np.mean((pred.data - y_true) ** 2)

        tape = Tape()
        pred = M.forward_baseline(arch, params, x, tape)
        loss = mse_op(tape, pred, y_true)
        tape.backward(loss)
        probe_gradcheck(loss_value, params, ("dense0.w", "dense1.b", "out.w", "out.b"))
        for p in params.values():
            p.grad = None


class TestMultitask:
    def _setup(self, seed=0):
        arch = M.MultiTaskArch(input_width=5, trunk=(10, 6))
        params = M.init_params(arch, seed=seed, dtype=np.float64)
        return arch, params

    def test_probs_sum_to_one(self):
        # the class head returns logits; their softmax is a probability row
        arch, params = self._setup()
        x = np.random.default_rng(1).standard_normal((11, 5))
        logits, flux, selected = M.forward_multitask(arch, params, x)
        assert logits.shape == (11, 3) and np.all(np.isfinite(logits.data))
        assert np.allclose(ad.softmax(logits).data.sum(axis=1), 1.0, atol=1e-6)
        assert flux.shape == (11, 3)
        assert selected.shape == (11,)

    def test_forced_class_zero(self):
        arch, params = self._setup()
        params["head_class.w"].data[:] = 0.0
        params["head_class.b"].data[:] = np.array([50.0, 0.0, 0.0])
        x = np.random.default_rng(2).standard_normal((6, 5))
        logits, flux, selected = M.forward_multitask(arch, params, x)
        assert np.array_equal(selected, flux.data[:, 0])

    def test_selection_matches_loop_oracle(self):
        arch, params = self._setup(seed=3)
        x = np.random.default_rng(4).standard_normal((30, 5))
        logits, flux, selected = M.forward_multitask(arch, params, x)
        for i in range(30):
            best = 0
            for k in range(1, 3):
                if logits.data[i, k] > logits.data[i, best]:
                    best = k
            assert selected[i] == flux.data[i, best]

    def test_logit_scaling_never_changes_selection(self):
        arch, params = self._setup(seed=5)
        x = np.random.default_rng(6).standard_normal((20, 5))
        _, _, selected = M.forward_multitask(arch, params, x)
        for c in (0.5, 2.0, 10.0):
            params_scaled = {k: Tensor(v.data.copy()) for k, v in params.items()}
            params_scaled["head_class.w"].data *= c
            params_scaled["head_class.b"].data *= c
            _, _, sel2 = M.forward_multitask(arch, params_scaled, x)
            assert np.array_equal(selected, sel2)


class TestConvDecoder:
    def test_shape_trace_default(self):
        arch = M.ConvDecoderArch(input_width=10)
        assert arch.side == 16
        params = M.init_params(arch, seed=0)
        x = np.random.default_rng(0).standard_normal((2, 10))
        out = M.forward_convdecoder(arch, params, x)
        assert out.shape == (2, 128, 128)

    def test_shape_trace_small(self):
        arch = M.ConvDecoderArch(input_width=8, **SMALL_CONV)
        assert arch.side == 4
        params = M.init_params(arch, seed=1)
        out = M.forward_convdecoder(arch, params, np.zeros((3, 8)))
        assert out.shape == (3, 32, 32)

    def test_identical_rows_identical_maps(self):
        arch = M.ConvDecoderArch(input_width=8, **SMALL_CONV)
        params = M.init_params(arch, seed=2, dtype=np.float64)
        row = np.random.default_rng(3).standard_normal(8)
        out = M.forward_convdecoder(arch, params, np.stack([row, row])).data
        assert np.array_equal(out[0], out[1])

    def test_seam_continuity_random_params(self):
        # the seam column difference must not exceed the largest interior
        # column-to-column difference (periodic construction)
        for seed in (0, 1, 2, 3, 4):
            arch = M.ConvDecoderArch(input_width=8, **SMALL_CONV)
            params = M.init_params(arch, seed=seed, dtype=np.float64)
            x = np.random.default_rng(100 + seed).standard_normal((1, 8))
            grid = M.forward_convdecoder(arch, params, x).data[0]
            seam = np.abs(grid[:, 0] - grid[:, -1]).max()
            interior = np.abs(np.diff(grid, axis=1)).max()
            assert seam <= interior

    def test_width_roll_before_pad_rolls_output(self):
        # rolling the columns of the tensor entering the periodic pad rolls
        # the final output columns identically (exact)
        rng = np.random.default_rng(8)
        k = Tensor(rng.standard_normal((1, 3, 7, 7)))
        b = Tensor(rng.standard_normal(1))
        x = rng.standard_normal((1, 3, 32, 32))

        def head(arr):
            h = ad.pad_periodic_mlt(Tensor(arr), 3)
            h = ad.pad_zero_lat(h, 3)
            h = ad.conv2d(h, k)
            return ad.add_channel_bias(h, b).data

        base = head(x)
        for shift in (1, 5, 8, 31):
            rolled = head(np.roll(x, shift, axis=-1))
            assert np.array_equal(rolled, np.roll(base, shift, axis=-1))

    def test_gradcheck_through_full_decoder(self):
        arch = M.ConvDecoderArch(input_width=5, trunk=(6,), n_lat=16, n_mlt=16,
                                 filters=(2, 2), kernels=(3, 5), strides=(2, 2),
                                 final_kernel=7, overlap=3)
        params = M.init_params(arch, seed=3, dtype=np.float64)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 5))
        values = rng.standard_normal((2, 16, 16))
        mask = rng.random((2, 16, 16)) < 0.3
        mask[0, 0, 0] = True

        def loss_value():
            pred = M.forward_convdecoder(arch, params, x)
            err = (pred.data[mask] - values[mask])
            return float((err**2).sum() / mask.sum())

        tape = Tape()
        pred = M.forward_convdecoder(arch, params, x, tape)
        loss = sparse_masked_loss_op(tape, pred, np.flatnonzero(mask), values[mask])
        tape.backward(loss)
        probe_gradcheck(loss_value, params, ("deconv1.k", "deconv2.b", "final.k", "to_grid.w"))
        for p in params.values():
            p.grad = None

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            M.ConvDecoderArch(input_width=4, n_lat=30, n_mlt=30)
        with pytest.raises(ValueError):
            M.ConvDecoderArch(input_width=4, final_kernel=5)
        with pytest.raises(ValueError):
            M.ConvDecoderArch(input_width=4, kernels=(1, 5))

    def test_spatial_feature_guard(self):
        with pytest.raises(ConfigError, match="spatial"):
            M.assert_global_only(["sin_mlt", "AE_lag0m"])
        M.assert_global_only(["AE_lag0m", "Bz_avg30m"])


def _trunk_arch(variant, input_width=6, widths=(8, 4), dropout_rate=0.5):
    cls = {"baseline": M.BaselineArch, "multitask": M.MultiTaskArch, "conv": M.ConvDecoderArch}[variant]
    fields = {"hidden" if variant == "baseline" else "trunk": widths}
    if variant == "conv":
        fields.update(n_lat=32, n_mlt=32)
    return cls(input_width=input_width, dropout_rate=dropout_rate, **fields)


BAD_TRUNKS = {
    "input_width must be >= 1": {"input_width": 0},
    "all layer widths must be >= 1": {"widths": (8, 0)},
    "dropout_rate must be in [0, 1)": {"dropout_rate": 1.0},
}

VARIANTS = ["baseline", "multitask", "conv"]


class TestConvDecoderCells:
    """forward_convdecoder(..., cells): deconv2 onward runs at the cells'
    receptive field only."""

    @staticmethod
    def _cells(rng, n, grid, per_sample):
        """Ascending flat cells, per_sample random ones per sample plus
        cells on the MLT seam (columns 0-2, 125-127 of 128), on the
        latitude edges (rows 0-2, 125-127) and two cells of sample 1 two
        columns apart, whose 7x7 windows overlap."""
        last = grid - 1
        edges = [(0, 0), (1, 64), (2, last), (last, 0), (last - 1, 1), (last - 2, 2),
                 (40, last - 2), (41, last - 1), (42, last), (64, 0), (65, 1), (66, 2)]
        cells = []
        for i in range(n):
            picked = set(rng.choice(grid * grid, per_sample, replace=False).tolist())
            picked |= {r * grid + c for r, c in edges[i % 3 :: 3]}
            if i == 1:
                picked |= {70 * grid + 70, 70 * grid + 72}
            cells.append(i * grid * grid + np.array(sorted(picked)))
        return np.concatenate(cells)

    @pytest.mark.parametrize("training", [False, True])
    def test_bitwise_equal_to_dense_at_the_cells(self, training):
        """float32 and float64, 16 samples on 128x128 with about 15 cells
        each: one value per cell, in the cells' order, with the dense
        forward's bits there, and the dropout generator left where the
        dense forward leaves it."""
        arch = M.ConvDecoderArch(input_width=12)
        for dtype in (np.float32, np.float64):
            params = M.init_params(arch, seed=4, dtype=dtype)
            rng = np.random.default_rng(50)
            for p in params.values():  # nonzero biases, so the bias ops show
                p.data += dtype(0.05) * rng.standard_normal(p.shape).astype(dtype)
            x = rng.standard_normal((16, 12)).astype(dtype)
            cells = self._cells(rng, 16, 128, 11)
            dense_rng, cell_rng = np.random.default_rng(51), np.random.default_rng(51)
            dense = M.forward_convdecoder(arch, params, x, None, training, dense_rng).data
            y = M.forward_convdecoder(arch, params, x, None, training, cell_rng, cells).data
            assert dense.shape == (16, 128, 128) and y.shape == cells.shape and y.dtype == dtype
            assert y.tobytes() == dense.reshape(-1)[cells].tobytes()
            assert cell_rng.random() == dense_rng.random()

    @staticmethod
    def _small(seed):
        arch = M.ConvDecoderArch(input_width=5, trunk=(6,), n_lat=16, n_mlt=16,
                                 filters=(2, 2), kernels=(3, 5), strides=(2, 2),
                                 final_kernel=7, overlap=3)
        params = M.init_params(arch, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(seed)
        for p in params.values():
            p.data += 0.1 * rng.standard_normal(p.shape)
        x = rng.standard_normal((2, 5))
        # seam and latitude-edge cells, two overlapping windows in sample 0
        cells = np.array([0, 2, 17, 8 * 16 + 15, 15 * 16 + 1, 256 + 13 * 16 + 14, 256 + 255])
        return arch, params, x, cells, rng.standard_normal(cells.size)

    def test_gradcheck_every_parameter(self):
        """float64 central differences through the restricted decoder, with
        dropout on, and place_cells into sparse_masked_loss_op, as a
        training step runs them, for every parameter."""
        arch, params, x, cells, target = self._small(53)

        def forward(tape):
            pred = M.forward_convdecoder(arch, params, x, tape, True, 7, cells)
            grids = ad.place_cells(pred, cells, (2, 16, 16), tape)
            return sparse_masked_loss_op(tape, grids, cells, target)

        tape = Tape()
        tape.backward(forward(tape))
        worst, checked = probe_gradcheck(lambda: forward(None).data, params, list(params))
        assert checked > 300
        for p in params.values():
            p.grad = None

    def test_float64_gradients_equal_the_dense_path(self):
        arch, params, x, cells, target = self._small(54)
        grads = []
        for use_cells in (None, cells):
            tape = Tape()
            pred = M.forward_convdecoder(arch, params, x, tape, True, 8, use_cells)
            if use_cells is not None:
                pred = ad.place_cells(pred, cells, (2, 16, 16), tape)
            tape.backward(sparse_masked_loss_op(tape, pred, cells, target))
            grads.append({name: p.grad for name, p in params.items()})
            ad.zero_grads(params.values())
        for name, ref in grads[0].items():
            got = grads[1][name]
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name

    @pytest.mark.parametrize(
        "cells",
        [np.array([[0, 1]]), np.array([0.0, 1.0]), np.array([-1, 3]), np.array([0, 2 * 32 * 32]),
         np.array([3, 1]), np.array([1, 1])],
        ids=["2-D", "float", "negative", "past-the-end", "unsorted", "repeated"],
    )
    def test_bad_cells(self, cells):
        """Cells outside the grids, or not strictly ascending, are an error,
        never values returned in another order or fewer of them."""
        arch = M.ConvDecoderArch(input_width=6, **SMALL_CONV)
        params = M.init_params(arch, seed=0)
        with pytest.raises(ValueError, match="cells"):
            M.forward_convdecoder(arch, params, np.zeros((2, 6)), cells=cells)


class TestTrunk:
    """The dense trunk every architecture starts with: one set of rules,
    one parameter layout, one forward prologue."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("message", list(BAD_TRUNKS))
    def test_shared_rules(self, variant, message):
        with pytest.raises(ValueError) as exc:
            _trunk_arch(variant, **BAD_TRUNKS[message])
        assert str(exc.value) == message

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("message", list(BAD_TRUNKS))
    def test_bad_checkpoint_header_is_data_error(self, tmp_path, variant, message):
        arch = _trunk_arch(variant)
        header = asdict(arch)
        bad = dict(BAD_TRUNKS[message])
        if "widths" in bad:
            bad["hidden" if variant == "baseline" else "trunk"] = list(bad.pop("widths"))
        header.update(bad)
        arrays = {k: (v.data, "<f4") for k, v in M.init_params(arch).items()}
        path = tmp_path / "bad.aur"
        container.write(path, "checkpoint", {"variant": variant, "arch": header, "meta": {}}, arrays)
        with pytest.raises(DataError, match="corrupt checkpoint architecture"):
            M.load_checkpoint(path)

    def test_param_shapes_order(self):
        trunk = [("dense0.w", (6, 8)), ("dense0.b", (8,)), ("dense1.w", (8, 4)), ("dense1.b", (4,))]
        heads = {
            "baseline": [("out.w", (4, 1)), ("out.b", (1,))],
            "multitask": [("head_class.w", (4, 3)), ("head_class.b", (3,)),
                          ("head_flux.w", (4, 3)), ("head_flux.b", (3,))],
            "conv": [("to_grid.w", (4, 16)), ("to_grid.b", (16,)),
                     ("deconv1.k", (1, 4, 9, 9)), ("deconv1.b", (4,)),
                     ("deconv2.k", (4, 4, 5, 5)), ("deconv2.b", (4,)),
                     ("final.k", (1, 4, 7, 7)), ("final.b", (1,))],
        }
        for variant, head in heads.items():
            assert list(M.param_shapes(_trunk_arch(variant)).items()) == trunk + head

    def test_baseline_trunk_is_hidden(self):
        arch = M.BaselineArch(input_width=6, hidden=(8, 4))
        assert arch.trunk == arch.hidden == (8, 4)
        assert "trunk" not in asdict(arch)
        with pytest.raises(AttributeError):
            arch.trunk = (9,)

    def test_conv_without_trunk_predicts(self):
        # the grid layer then reads the normalized inputs directly
        model = M.build_model(_trunk_arch("conv", widths=()), seed=0)
        raw = np.random.default_rng(2).standard_normal((5, 6))
        model.meta["normalization"] = Normalization.fit(raw).to_meta()
        pred, region = M.predict(model, raw)
        assert pred.shape == (5, 32, 32) and region is None


class TestCheckpoints:
    def _model(self, tmp_path, arch=None):
        arch = arch or M.BaselineArch(input_width=6, hidden=(8, 4))
        model = M.build_model(arch, seed=5)
        model.meta = {"seed": 5, "note": "probe"}
        path = tmp_path / "m.aur"
        M.save_checkpoint(model, path)
        return model, path

    def test_roundtrip_identical_forward(self, tmp_path):
        model, path = self._model(tmp_path)
        back = M.load_checkpoint(path)
        assert back.meta == model.meta
        x = np.random.default_rng(10).standard_normal((4, 6)).astype(np.float32)
        a = M.forward_baseline(model.arch, model.params, x).data
        b = M.forward_baseline(back.arch, back.params, x).data
        assert np.array_equal(a, b)

    def test_rewrite_identical_bytes(self, tmp_path):
        model, path = self._model(tmp_path)
        path2 = tmp_path / "m2.aur"
        M.save_checkpoint(model, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_conv_roundtrip(self, tmp_path):
        arch = M.ConvDecoderArch(input_width=8, **SMALL_CONV)
        model, path = self._model(tmp_path, arch)
        back = M.load_checkpoint(path)
        assert back.arch == arch
        x = np.random.default_rng(11).standard_normal((2, 8)).astype(np.float32)
        assert np.array_equal(
            M.forward_convdecoder(arch, model.params, x).data,
            M.forward_convdecoder(back.arch, back.params, x).data,
        )

    @pytest.mark.parametrize(
        "arch",
        [
            M.BaselineArch(input_width=6, hidden=(8, 4), dropout_rate=0.3),
            M.MultiTaskArch(input_width=6, trunk=(8, 4), dropout_rate=0.3),
        ],
        ids=["baseline", "multitask"],
    )
    def test_point_roundtrip_keeps_arch_and_params(self, tmp_path, arch):
        model, path = self._model(tmp_path, arch)
        back = M.load_checkpoint(path)
        assert back.arch == arch and back.meta == model.meta
        assert back.params.keys() == model.params.keys()
        for name, tensor in model.params.items():
            assert np.array_equal(back.params[name].data, tensor.data)

    def test_corrupted_magic(self, tmp_path):
        _, path = self._model(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        # keep the CRC consistent so the magic check itself fires
        import struct
        import zlib

        body = bytes(raw[:-4])
        raw[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="magic"):
            M.load_checkpoint(path)

    def test_crc_detects_corruption(self, tmp_path):
        _, path = self._model(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="CRC"):
            M.load_checkpoint(path)

    def test_truncation(self, tmp_path):
        _, path = self._model(tmp_path)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(DataError):
            M.load_checkpoint(path)

    def test_cross_arch_shape_mismatch(self, tmp_path):
        arch_a = M.BaselineArch(input_width=6, hidden=(8, 4))
        arch_b = M.BaselineArch(input_width=6, hidden=(9, 4))
        model = M.Model(arch=arch_a, params=M.init_params(arch_b, seed=0), meta={})
        path = tmp_path / "bad.aur"
        M.save_checkpoint(model, path)
        with pytest.raises(DataError, match="shape mismatch"):
            M.load_checkpoint(path)


class TestArchFromConfig:
    def test_defaults(self):
        arch = M.arch_from_config({}, input_width=20)
        assert isinstance(arch, M.BaselineArch)
        assert arch.hidden == M.default_hidden(20)

    def test_conv_with_grid(self):
        cfg = {"arch": "conv", "arch.grid": "32", "arch.hidden": "24,16"}
        arch = M.arch_from_config(parse_values(cfg), input_width=10)
        assert isinstance(arch, M.ConvDecoderArch)
        assert arch.n_lat == 32 and arch.trunk == (24, 16)

    def test_unknown_arch(self):
        with pytest.raises(ConfigError):
            M.arch_from_config(parse_values({"arch": "transformer"}), input_width=4)

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            M.arch_from_config(parse_values({"arch": "conv", "arch.grid": "30"}), input_width=4)


class TestPredict:
    """``models.predict``: the stored z-scoring, then the forward pass in
    chunks of ``PREDICT_BYTES`` over one row's widest activation."""

    @staticmethod
    def _model(arch, n, seed=1):
        model = M.build_model(arch, seed=seed)
        raw = np.random.default_rng(seed).normal(5.0, 3.0, (n, arch.input_width))
        model.meta["normalization"] = Normalization.fit(raw).to_meta()
        return model, raw

    @staticmethod
    def _predict(monkeypatch, model, raw, budget):
        monkeypatch.setattr(M, "PREDICT_BYTES", budget)
        return M.predict(model, raw)

    @pytest.mark.parametrize(
        "arch,n_rows,chunks",
        [
            (M.BaselineArch(133), 16384, [16384]),
            (M.BaselineArch(133), 16385, [8192, 8193]),
            (M.ConvDecoderArch(130), 233, [233]),
            (M.ConvDecoderArch(130), 467, [155, 156, 156]),
        ],
        ids=["baseline", "baseline_plus_one", "conv", "conv_three"],
    )
    def test_chunk_rule(self, monkeypatch, arch, n_rows, chunks):
        """At most 64 MiB over the widest float32 activation (the 1,024-wide
        dense layer of the point trunk, the 4x134x134 pad of the conv
        decoder), in the fewest chunks of near-equal size."""
        model, raw = self._model(arch, n_rows)
        seen = []
        monkeypatch.setattr(
            M, "forward_convdecoder", lambda arch, params, x: seen.append(len(x)) or Tensor(x[:, :1, None])
        )
        monkeypatch.setattr(M, "predict_point", lambda model, x: seen.append(len(x)) or (x[:, 0], None))
        pred, _ = M.predict(model, raw)
        assert seen == chunks
        # the chunks are consecutive slices that cover every row once
        first = Normalization.from_meta(model.meta["normalization"], arch.input_width).apply(raw)[:, 0]
        assert np.array_equal(pred.reshape(n_rows, -1)[:, 0], first)

    @pytest.mark.parametrize("chunk", [1000, 4096, 16384, 19999])
    def test_baseline_chunks_are_bit_identical(self, monkeypatch, chunk):
        arch = M.BaselineArch(40, hidden=(64, 256, 32))
        model, raw = self._model(arch, 20000)
        whole, _ = self._predict(monkeypatch, model, raw, 1 << 40)
        part, region = self._predict(monkeypatch, model, raw, chunk * 4 * 256)
        assert region is None
        assert part.dtype == np.float64 and np.array_equal(part, whole)
        norm = model.meta["normalization"]
        ref = M.forward_baseline(arch, model.params, (raw - norm["mean"]) / norm["std"]).data
        assert np.array_equal(whole, ref)

    def test_conv_chunks_are_bit_identical(self, monkeypatch):
        arch = M.ConvDecoderArch(input_width=30, trunk=(16, 8), n_lat=32, n_mlt=32)
        model, raw = self._model(arch, 150)
        whole, region = self._predict(monkeypatch, model, raw, 1 << 40)
        part, _ = self._predict(monkeypatch, model, raw, 37 * 4 * (4 * 38 * 38))
        assert region is None and whole.shape == (150, 32, 32)
        assert np.array_equal(part, whole)

    def test_conv_chunks_at_positions_are_the_grids_gathered(self, monkeypatch):
        """With ``positions``, each of several chunks predicts its own
        positions only: ``predict``'s values are its grids gathered at the
        positions, bit for bit, float32 values widened to float64."""
        arch = M.ConvDecoderArch(input_width=30, trunk=(16, 8), n_lat=32, n_mlt=32)
        model, raw = self._model(arch, 150)
        rng = np.random.default_rng(2)
        positions = np.unique(np.arange(150)[:, None] * 32 * 32 + rng.integers(0, 32 * 32, (150, 3)))
        grids, _ = self._predict(monkeypatch, model, raw, 37 * 4 * (4 * 38 * 38))
        forward, chunks = M.forward_convdecoder, []
        monkeypatch.setattr(M, "forward_convdecoder", lambda *a: chunks.append(len(a[2])) or forward(*a))
        values, region = M.predict(model, raw, positions)
        assert len(chunks) == 5 and region is None
        assert values.dtype == np.float64 and values.shape == positions.shape
        assert values.tobytes() == grids.reshape(-1)[positions].astype(np.float32).astype(np.float64).tobytes()

    @pytest.mark.parametrize(
        "variant,positions",
        [("conv", np.array([3, 1])), ("conv", np.array([1, 1])), ("conv", np.array([0, 2 * 32 * 32])),
         ("baseline", np.array([0]))],
        ids=["unsorted", "repeated", "past-the-end", "baseline"],
    )
    def test_bad_positions(self, variant, positions):
        """Positions outside the grids or not strictly ascending, or any
        for a point model, are an error, never values in another order."""
        arch = M.ConvDecoderArch(input_width=6, **SMALL_CONV) if variant == "conv" else M.BaselineArch(6, (8,))
        model, raw = self._model(arch, 2)
        with pytest.raises(ValueError, match="positions"):
            M.predict(model, raw, positions)

    def test_multitask_chunks_agree_within_float32(self, monkeypatch):
        """The multitask heads are not bit-stable across chunk sizes (flux
        differences up to 7.2e-7 were seen): the flux agrees within 4
        float32 eps of the largest flux, and the region wherever the top two
        class logits are apart."""
        arch = M.MultiTaskArch(40, trunk=(64, 256, 32))
        model, raw = self._model(arch, 12000)
        whole, whole_region = self._predict(monkeypatch, model, raw, 1 << 40)
        part, part_region = self._predict(monkeypatch, model, raw, 3000 * 4 * 256)
        tol = 4 * np.finfo(np.float32).eps * np.max(np.abs(whole))
        assert np.max(np.abs(part - whole)) <= tol
        norm = model.meta["normalization"]
        logits = M.forward_multitask(arch, model.params, (raw - norm["mean"]) / norm["std"])[0].data
        assert np.array_equal(whole_region, np.argmax(logits, axis=1))
        top2 = np.sort(logits, axis=1)[:, -2:]
        apart = top2[:, 1] - top2[:, 0] > 1e-5
        assert np.array_equal(part_region[apart], whole_region[apart])

    def test_bad_widths_are_data_errors(self):
        model, raw = self._model(M.BaselineArch(6, hidden=(8,)), 10)
        with pytest.raises(DataError, match="normalizes 6 features, each input row has 5"):
            M.predict(model, raw[:, :5])
        model.meta["normalization"]["std"].pop()
        with pytest.raises(DataError, match="normalizes 5 features, the model takes 6"):
            M.predict(model, raw)
        del model.meta["normalization"]["mean"]
        with pytest.raises(DataError, match="lacks normalization statistics"):
            M.predict(model, raw)
