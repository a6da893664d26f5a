import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cacconv
from cacconv import InvalidArgument, verify
from cacconv.cli import RunConfig, load_config, main
from cacconv.layers import Network, model_presets, resolve_model_spec
from cacconv.train import save_checkpoint


class TestRunConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(InvalidArgument, match="learning_rate"):
            RunConfig.from_dict({"learning_rate": 0.1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(InvalidArgument, match="optimizer"):
            RunConfig.from_dict({"optimizer": {"lr": 0.1, "betas": [0.9, 0.99]}})
        with pytest.raises(InvalidArgument, match="dataset"):
            RunConfig.from_dict({"dataset": {"n": 5}})

    def test_defaults_filled_in(self):
        cfg = RunConfig.from_dict({})
        assert cfg.lam == 0.3
        assert cfg.epochs == 20 and cfg.batch_size == 64
        assert cfg.optimizer["momentum"] == 0.9
        assert cfg.optimizer["nesterov"] is True
        assert cfg.dataset["kind"] == "synthetic"

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidArgument):
            RunConfig.from_dict({"lambda": -0.1})
        with pytest.raises(InvalidArgument):
            RunConfig.from_dict({"epochs": 0})
        for bad in ({"epochs": "3"}, {"epochs": True}, {"lambda": "0.3"}, {"augment": 1}):
            with pytest.raises(InvalidArgument, match="must be"):
                RunConfig.from_dict(bad)
        assert RunConfig.from_dict({"lambda": 1}).lam == 1

    def test_malformed_json_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(InvalidArgument, match="malformed"):
            load_config(p)


class TestPresets:
    def test_known_presets_resolve(self):
        for name in model_presets():
            spec = resolve_model_spec(name)
            assert spec["layers"][-1]["type"] == "softmax_ce"

    def test_resolution_returns_a_copy(self):
        spec = resolve_model_spec("cac_small")
        spec["layers"][0]["out"] = 999
        assert resolve_model_spec("cac_small")["layers"][0]["out"] == 16

    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidArgument, match="unknown model preset"):
            resolve_model_spec("resnet50")

    def test_twin_presets_differ_only_in_conv_type(self):
        cac = resolve_model_spec("cac_small")["layers"]
        conv = resolve_model_spec("conv_small")["layers"]
        assert len(cac) == len(conv)
        for a, b in zip(cac, conv):
            ta, tb = a.pop("type"), b.pop("type")
            assert a == b
            assert (ta, tb) in {("cac_conv", "conv")} or ta == tb


def write_tiny_config(tmp_path, **overrides):
    cfg = {
        "seed": 1,
        "model": "cac_tiny_synth",
        "lambda": 0.3,
        "epochs": 2,
        "batch_size": 32,
        "output_dir": str(tmp_path / "run"),
        "dataset": {"kind": "synthetic", "synth_n": 64, "synth_test_n": 32},
        "optimizer": {"lr": 0.05},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestEndToEnd:
    def test_train_eval_analyze_export(self, tmp_path, capsys):
        cfg_path = write_tiny_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--quiet"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{"):])
        run_dir = tmp_path / "run"
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "metrics.jsonl").exists()
        assert (run_dir / "model.json").exists()
        assert 0.0 <= summary["final"]["top1_error"] <= 1.0

        data_args = ["--data", "synthetic", "--synth-n", "32", "--synth-seed", "7"]
        assert main(["eval", "--model", str(run_dir / "model.ckpt")] + data_args) == 0
        eval_out = json.loads(capsys.readouterr().out)
        assert "madds_mean" in eval_out and "rho_hard" in eval_out

        csv_path = tmp_path / "cost.csv"
        assert main(["analyze", "--model", str(run_dir / "model.ckpt"),
                     "--out", str(csv_path)] + data_args) == 0
        capsys.readouterr()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "layer_id,rho_mean,rho_std,omega_conv,omega_cac,rho_bar"
        totals = json.loads((tmp_path / "cost.totals.json").read_text())
        assert set(totals) == {"c_model", "c_baseline", "ratio", "reduction_percent"}
        assert totals["ratio"] == pytest.approx(
            totals["c_model"] / totals["c_baseline"], rel=1e-12)

        first_csv = csv_path.read_bytes()
        assert main(["analyze", "--model", str(run_dir / "model.ckpt"),
                     "--out", str(csv_path)] + data_args) == 0
        capsys.readouterr()
        assert csv_path.read_bytes() == first_csv

        ratios_dir = tmp_path / "ratios"
        assert main(["export-ratios", "--model", str(run_dir / "model.ckpt"),
                     "--image", "0", "--out", str(ratios_dir)] + data_args) == 0
        capsys.readouterr()
        files = sorted(os.listdir(ratios_dir))
        assert files == ["00_cac_conv.csv"]
        header, *rows = (ratios_dir / files[0]).read_text().splitlines()
        assert header == "index,G,M,sharp"
        assert len(rows) == 32 * 32
        g, m, sharp = rows[0].split(",")[1:]
        assert float(g) >= 0 and 0 <= float(m) <= 1 and sharp in ("0", "1")

    def test_train_rerun_is_byte_identical(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cfg_a = write_tiny_config(tmp_path / "a", output_dir=str(tmp_path / "a/run"))
        cfg_b = write_tiny_config(tmp_path / "b", output_dir=str(tmp_path / "b/run"))
        assert main(["train", "--config", str(cfg_a), "--quiet"]) == 0
        assert main(["train", "--config", str(cfg_b), "--quiet"]) == 0
        capsys.readouterr()
        a = (tmp_path / "a/run/metrics.jsonl").read_bytes()
        b = (tmp_path / "b/run/metrics.jsonl").read_bytes()
        assert a == b

    def test_usage_error_exits_2(self, capsys):
        assert main([]) == 2
        assert main(["train"]) == 2
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_missing_files_exit_1(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "absent.json")]) == 1
        assert main(["eval", "--model", str(tmp_path / "absent.ckpt"),
                     "--data", "synthetic"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_eval_missing_spec_mentions_flag(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(b"CAC1")
        assert main(["eval", "--model", str(ckpt), "--data", "synthetic"]) == 1
        assert "--model-spec" in capsys.readouterr().err


def run_cli(*args):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(cacconv.__file__))
    return subprocess.run(
        [sys.executable, "-m", "cacconv.cli", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )


class TestMalformedInputs:
    """Bad user files end in an ``error:`` line and exit 1, never a traceback."""

    def assert_clean_failure(self, proc):
        assert proc.returncode == 1, proc.stderr
        assert any(line.startswith("error:") for line in proc.stderr.splitlines())
        assert "Traceback" not in proc.stderr

    def eval_with_spec(self, tmp_path, text):
        (tmp_path / "model.json").write_text(text)
        return run_cli("eval", "--model", str(tmp_path / "model.ckpt"), "--data", "synthetic")

    def test_truncated_model_json(self, tmp_path):
        full = json.dumps({"model": resolve_model_spec("cac_tiny_synth")})
        self.assert_clean_failure(self.eval_with_spec(tmp_path, full[:len(full) // 2]))

    def test_model_json_without_model_key(self, tmp_path):
        self.assert_clean_failure(self.eval_with_spec(tmp_path, "{}"))

    def test_removed_freeze_gates_sharp_key_in_config(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path, freeze_gates_sharp=True)
        proc = run_cli("train", "--config", str(cfg_path), "--quiet")
        self.assert_clean_failure(proc)
        assert "freeze_gates_sharp" in proc.stderr

    def test_legacy_model_json_with_freeze_key_evaluates(self, tmp_path):
        spec = resolve_model_spec("cac_tiny_synth")
        net = Network.build(spec, rng=np.random.default_rng(0))
        save_checkpoint(tmp_path / "model.ckpt", net.state_dict())
        proc = self.eval_with_spec(
            tmp_path, json.dumps({"model": spec, "freeze_gates_sharp": False}))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["n"] == 512

    def test_string_epochs_in_config(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path, epochs="3")
        self.assert_clean_failure(run_cli("train", "--config", str(cfg_path), "--quiet"))

    @pytest.mark.parametrize("overrides", [
        {"optimizer": {"lr": "0.1"}},
        {"optimizer": {"decay_epochs": 3}},
        {"dataset": {"synth_n": "x"}},
        {"dataset": {"kind": "cifar10", "path": 5}},
        {"model": {"input": 5, "num_classes": 2, "layers": []}},
    ], ids=["string_lr", "int_decay_epochs", "string_synth_n", "int_path", "int_input"])
    def test_wrong_type_in_config(self, tmp_path, overrides):
        cfg_path = write_tiny_config(tmp_path, **overrides)
        proc = run_cli("train", "--config", str(cfg_path), "--quiet")
        self.assert_clean_failure(proc)
        assert "must be" in proc.stderr

    @pytest.mark.parametrize("layer", [
        5,
        {"type": "conv", "k": 3},
        {"type": "conv", "out": "a", "k": 3},
        {"type": "conv", "out": 0, "k": 3},
        {"type": "avgpool", "k": 0},
        {"type": "conv", "out": 4, "bias": "no"},
        {"type": "conv", "out": 4, "kernel": 5},
        {"type": "cac_conv", "out": 4, "pbar_mode": "median"},
    ], ids=["int_layer", "conv_without_out", "string_out", "zero_out", "zero_pool",
            "string_bias", "unknown_key", "unknown_pbar_mode"])
    def test_malformed_layer_in_model_json(self, tmp_path, layer):
        spec = {"input": {"channels": 3, "size": 8}, "num_classes": 2, "layers": [layer]}
        proc = self.eval_with_spec(tmp_path, json.dumps({"model": spec}))
        self.assert_clean_failure(proc)
        assert "error: layer 0" in proc.stderr


class TestVerifyCommand:
    def test_verify_fast_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all 4 checks passed" in out and "FAIL" not in out
        ok_names = [line.split()[1] for line in out.splitlines() if line.startswith("ok ")]
        assert ok_names == ["convolution:", "gated_dispatch:", "gradients:", "cost_model:"]

    def test_verify_failure_prints_manifest(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "CONV_REL_TOL_F64", 0.0)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL convolution:")
        manifest = json.loads(out[out.index("\n{"):])
        assert [f["name"] for f in manifest["failures"]] == ["convolution"]
