"""Self-test of the benchmark at smoke sizes: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(workload, trace, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def _values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_untraced_reports_every_end_to_end_metric():
    # the traced tests below run the other two workloads' plans and checks
    result, record = _result(_bench("point_train", 0))
    spec = _spec()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert record["seed"] == 3 and record["nproc"] >= 1 and record["numpy"]


@pytest.mark.parametrize("workload", ["data_prep", "conv_sparse"])
def test_traced_reports_every_per_layer_metric(workload):
    result, _ = _result(_bench(workload, 1))
    spec = _spec()
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    v = _values(result)
    if workload == "conv_sparse":
        assert v["train.steps"] > 0
        maps = run.SMOKE_SIZES[workload].maps
        assert v["autodiff.conv2d.calls"] == v["train.steps"] + v["train.epochs"] + maps
        assert v["autodiff.conv2d.fwd_s"] > 0 and v["autodiff.conv2d.bwd_s"] > 0
        assert v["models.forward_convdecoder.infer_s"] > 0
        assert v["train_samples_per_s"] > 0 and v["val_mse"] > 0
    else:
        assert v["train.sparse_samples"] > 0 and v["autodiff.dense.calls"] == 0
        assert 0 < v["train.sparse_observed_frac"] < 0.01
        assert v["composite_s"] > 0 and v["train_s"] == 0


def test_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("data_prep", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_aggregate_busy_and_self_time():
    spans = [
        ["cli.train", 0.0, 10.0, -1],
        ["train.train_model", 1.0, 9.0, 0],
        ["autodiff.dense", 2.0, 3.0, 1],
        ["autodiff.Tape.backward", 4.0, 8.0, 1],
        ["autodiff.dense#bwd", 4.5, 6.5, 3],
    ]
    busy, self_s, calls, counts = run.aggregate([{"spans": spans, "counts": {"x": 2.0}}] * 2)
    assert busy["cli.train"] == 20.0 and self_s["cli.train"] == 4.0
    assert self_s["train.train_model"] == 6.0 and self_s["autodiff.Tape.backward"] == 4.0
    assert busy["autodiff.dense#bwd"] == 4.0 and calls["autodiff.dense"] == 2
    assert counts == {"x": 4.0}


def test_check_outputs_rejects_a_tampered_manifest(tmp_path):
    out = tmp_path / "synth"
    out.mkdir()
    (out / "drivers.csv").write_text("t,x\n0,1\n")
    digest = run._sha256(str(out / "drivers.csv"))
    (out / "manifest.json").write_text(json.dumps({"outputs": {"drivers.csv": digest}}))
    assert run.check_manifest(str(out)) == {"drivers.csv": digest}
    (out / "drivers.csv").write_text("t,x\n0,2\n")
    with pytest.raises(run.CheckFailed):
        run.check_manifest(str(out))


def test_failed_process_is_counted_with_its_stderr(tmp_path):
    runner = run.Runner(str(tmp_path), deadline=run.time.monotonic() + 60)
    step = run.Step("map", "cli", ["map", "--checkpoint", str(tmp_path / "none.aur"),
                                   "--drivers", str(tmp_path / "none.csv"), "--at", "0", "--out", "x"])
    with pytest.raises(run.CheckFailed):
        runner.run(step, traced=False)
    assert runner.attempted == 1
    (failure,) = runner.failures
    assert failure["stage"] == "map" and failure["code"] == 3
    assert "data error" in failure["stderr_tail"]
