import io
import json
import math
import os
import re
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cacconv
from cacconv import DataFormatError, InvalidArgument, NumericFailure, verify
from cacconv import cli as cli_module
from cacconv import train as train_module
from cacconv.cli import RunConfig, _json_key, load_config, load_model, main
from cacconv.data import (load_cifar10_split, parse_cifar10_file, synth_dataset,
                          write_cifar10_batch)
from cacconv.layers import Network, model_presets, resolve_model_spec
from cacconv.train import evaluate, load_checkpoint, save_checkpoint


def config_json(cfg: RunConfig) -> dict:
    """``cfg`` as the JSON object that ``RunConfig.from_dict`` reads."""
    values = asdict(cfg)
    return {_json_key(f): values[f.name] for f in fields(RunConfig)}


def config_fields() -> list:
    """Every config field but the model spec, which Network.build checks,
    as a path of JSON keys."""
    paths = []
    for name, default in config_json(RunConfig()).items():
        if name != "model":
            paths.append((name,))
        if isinstance(default, dict):
            paths += [(name, key) for key in default]
    return paths


# JSON values of every type, out-of-range numbers included.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(-2, 5), max_size=3), st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


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
        assert cfg.optimizer.momentum == 0.9
        assert cfg.optimizer.nesterov is True
        assert cfg.dataset.kind == "synthetic"

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidArgument):
            RunConfig.from_dict({"lambda": -0.1})
        with pytest.raises(InvalidArgument):
            RunConfig.from_dict({"epochs": 0})
        for bad in ({"epochs": "3"}, {"epochs": True}, {"lambda": "0.3"}, {"augment": 1},
                    {"lambda": 10 ** 400}):
            with pytest.raises(InvalidArgument, match="must be"):
                RunConfig.from_dict(bad)
        assert RunConfig.from_dict({"lambda": 1}).lam == 1
        # The field's name is not a second key for "lambda".
        with pytest.raises(InvalidArgument, match=re.escape("unknown config keys: ['lam']")):
            RunConfig.from_dict({"lam": 0.7})

    def test_malformed_json_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(InvalidArgument, match="malformed"):
            load_config(p)

    def test_integer_too_long_to_read(self, tmp_path):
        # json.load raises a plain ValueError past Python's 4300-digit limit
        p = tmp_path / "cfg.json"
        p.write_text('{"seed": ' + "1" * 5000 + "}")
        with pytest.raises(InvalidArgument, match="malformed"):
            load_config(p)

    def test_readme_defaults_match_dataclasses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        shown = readme.split("Defaults shown:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        assert json.loads(shown) == config_json(RunConfig())

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(path=st.sampled_from(config_fields()), value=JSON_VALUES)
    def test_one_mutated_field_is_rejected_or_valid(self, path, value):
        *block, key = path
        d = {block[0]: {key: value}} if block else {key: value}
        try:
            cfg = RunConfig.from_dict(d)
        except InvalidArgument:
            return
        assert RunConfig.from_dict(config_json(cfg)) == cfg
        default = config_json(RunConfig())
        for name in path:
            default = default[name]
        if default is not None and not isinstance(default, dict):
            # float also takes integers; nothing else changes JSON type
            assert type(value) is type(default) or (type(default), type(value)) == (float, int)


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

    def test_final_block_reuses_the_last_epochs_evaluation(self, tmp_path, capsys,
                                                           monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(cli_module, "evaluate", counted)
        monkeypatch.setattr(train_module, "evaluate", counted)
        finals = {}
        # (epochs, eval_every): the test set evaluated each epoch, never,
        # and at an epoch before the last one.
        for epochs, every in ((2, 1), (2, 0), (3, 2)):
            calls.clear()
            cfg = write_tiny_config(tmp_path, epochs=epochs, eval_every=every,
                                    output_dir=str(tmp_path / f"run{epochs}{every}"))
            assert main(["train", "--config", str(cfg), "--quiet"]) == 0
            out = capsys.readouterr().out
            finals[epochs, every] = len(calls), out[out.index('"final"'):]
        assert [n for n, _ in finals.values()] == [2, 1, 2]
        assert finals[2, 1][1] == finals[2, 0][1]

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


def save_model(directory, preset, tensor=None, value=None, index=slice(None)):
    """Write the checkpoint and model.json of a seed-0 ``preset`` into
    ``directory``, with the flat ``index`` of ``tensor`` set to ``value``
    if ``tensor`` is given, and return the checkpoint's path."""
    spec = resolve_model_spec(preset)
    state = Network.build(spec, rng=np.random.default_rng(0)).state_dict()
    if tensor is not None:
        state[tensor].flat[index] = value
    save_checkpoint(directory / "model.ckpt", state)
    (directory / "model.json").write_text(json.dumps({"model": spec}))
    return str(directory / "model.ckpt")


class TestLabelsOutsideTheModel:
    """``cac_tiny_synth`` has 2 classes; a ten-class CIFAR-format
    directory holds labels it cannot output."""

    @pytest.fixture
    def cifar(self, tmp_path):
        rng = np.random.default_rng(0)
        d = tmp_path / "cifar"
        d.mkdir()
        for name in ("data_batch_1.bin", "test_batch.bin"):
            write_cifar10_batch(d / name, rng.integers(0, 256, (16, 3, 32, 32), np.uint8),
                                np.arange(16) % 10)
        return d

    def assert_clean_failure(self, code, err):
        assert code == 1, err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err
        assert re.fullmatch(r"error: label [2-9] is outside the model's 2 classes \[0, 2\)",
                            errors[0])
        assert "Traceback" not in err

    def test_train(self, tmp_path, cifar, capsys):
        cfg_path = write_tiny_config(
            tmp_path, epochs=1, batch_size=16, dataset={"kind": "cifar10", "path": str(cifar)})
        code = main(["train", "--config", str(cfg_path), "--quiet"])
        self.assert_clean_failure(code, capsys.readouterr().err)

    def test_eval(self, tmp_path, cifar, capsys):
        code = main(["eval", "--model", save_model(tmp_path, "cac_tiny_synth"),
                     "--data", str(cifar)])
        self.assert_clean_failure(code, capsys.readouterr().err)


class TestEmptyCifarSplit:
    """A CIFAR split with no records stops the command before any work,
    with one ``error:`` line naming the split's file."""

    @pytest.fixture
    def cifar(self, tmp_path):
        rng = np.random.default_rng(0)
        d = tmp_path / "cifar"
        d.mkdir()
        for name in ("data_batch_1.bin", "test_batch.bin"):
            write_cifar10_batch(d / name, rng.integers(0, 256, (8, 3, 32, 32), np.uint8),
                                np.arange(8) % 2)
        return d

    def assert_one_error_naming(self, code, err, name):
        assert code == 1, err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert name in lines[0] and "no records" in lines[0], err

    def test_train_with_empty_test_batch(self, tmp_path, cifar, capsys):
        (cifar / "test_batch.bin").write_bytes(b"")
        cfg_path = write_tiny_config(
            tmp_path, epochs=1, batch_size=8, dataset={"kind": "cifar10", "path": str(cifar)})
        code = main(["train", "--config", str(cfg_path), "--quiet"])
        self.assert_one_error_naming(code, capsys.readouterr().err, "test_batch.bin")
        assert not (tmp_path / "run").exists()

    def test_eval_train_split_with_empty_data_batch(self, tmp_path, cifar, capsys):
        (cifar / "data_batch_1.bin").write_bytes(b"")
        code = main(["eval", "--model", save_model(tmp_path, "cac_tiny_synth"),
                     "--data", str(cifar), "--split", "train"])
        self.assert_one_error_naming(code, capsys.readouterr().err, "data_batch_*.bin")


class TestNonFiniteNets:
    """A net whose logits go non-finite past its last gate, or that has no
    gate, ends ``eval`` and ``analyze`` in one ``error:`` line naming the
    first non-finite layer, and ``analyze`` writes nothing."""

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    @pytest.mark.parametrize("preset, depth", [("conv_small", 4), ("cac_small", 8)])
    def test_fails_naming_the_layer(self, tmp_path, capsys, preset, depth, command):
        spec = resolve_model_spec(preset)
        net = Network.build(spec, rng=np.random.default_rng(0))
        net.layers[depth].weight[...] = np.inf
        save_checkpoint(tmp_path / "model.ckpt", net.state_dict())
        (tmp_path / "model.json").write_text(json.dumps({"model": spec}))
        out = ["--out", str(tmp_path / "cost.csv")] if command == "analyze" else []
        code = main([command, "--model", str(tmp_path / "model.ckpt"), "--data", "synthetic",
                     "--synth-n", "4", *out])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: output contains non-finite values: "
            f"first non-finite activation at layer {net.layers[depth].name}"]
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt", "model.json"]

    @pytest.mark.parametrize("preset", ["cac_tiny_synth", "cac_small"])
    def test_nan_in_any_tensor_names_its_layer(self, tmp_path, capsys, preset):
        net = Network.build(resolve_model_spec(preset), rng=np.random.default_rng(0))
        for tensor in net.state_dict():
            model = save_model(tmp_path, preset, tensor, np.nan, index=0)
            code = main(["eval", "--model", model, "--data", "synthetic", "--synth-n", "4"])
            err = capsys.readouterr().err.splitlines()
            assert code == 1, tensor
            assert len(err) == 1 and err[0].startswith("error: "), (tensor, err)
            assert err[0].endswith(f"at layer {tensor.split('.')[0]}"), (tensor, err)

    @pytest.mark.parametrize("preset, tensor, value, images", [
        ("conv_small", "04_conv.weight", np.inf, 4),
        ("cac_small", "08_cac_conv.weight", np.inf, 4),
        # A batch of 64 all-sharp images: layer 04 sums half the output
        # rows of each chunk of images on the hard path's helper thread.
        ("cac_small", "04_cac_conv.weight", np.inf, 64),
        ("cac_tiny_synth", "00_cac_conv.gate_beta", np.nan, 4),
    ])
    def test_stderr_holds_only_the_error_line(self, tmp_path, preset, tensor, value, images):
        # In a fresh interpreter, where no test harness captures numpy's
        # warnings.
        proc = run_cli("eval", "--model", save_model(tmp_path, preset, tensor, value),
                       "--data", "synthetic", "--synth-n", str(images))
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert err[0].endswith(f"at layer {tensor.split('.')[0]}"), err


class TestDataFlags:
    """What ``eval``, ``analyze`` and ``export-ratios`` read from their flags."""

    @pytest.fixture
    def model(self, tmp_path):
        return save_model(tmp_path, "cac_tiny_synth")

    def test_defaults_read_what_a_default_config_trains_and_tests_on(self, tmp_path, capsys):
        # README's sequence: train a default synthetic config, then eval it
        # with no size or seed flag.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": "cac_tiny_synth", "epochs": 1,
                                   "output_dir": str(tmp_path / "run")}))
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        out = capsys.readouterr().out
        final = json.loads(out[out.index("{"):])["final"]
        model = str(tmp_path / "run" / "model.ckpt")

        def eval_out(*flags):
            assert main(["eval", "--model", model, "--data", "synthetic", *flags]) == 0
            return capsys.readouterr().out

        assert eval_out() == json.dumps(final, indent=2) + "\n"
        net = load_model(model)
        for flags, ds in ((["--split", "train"], synth_dataset("smooth_vs_textured", 512, 0)),
                          (["--subset", "10"],
                           synth_dataset("smooth_vs_textured", 256, 1).subset(10, 1))):
            expected = evaluate(net, ds.images, ds.labels).summary()
            assert json.loads(eval_out(*flags)) == expected, flags

    def test_synthetic_splits_draw_from_seed_and_next_seed(self, model, capsys):
        # As in a config's dataset block: train from synth_seed, test from
        # synth_seed + 1.
        got = {}
        for split in ("train", "test"):
            assert main(["eval", "--model", model, "--data", "synthetic", "--synth-n", "8",
                         "--synth-seed", "5", "--split", split]) == 0
            got[split] = json.loads(capsys.readouterr().out)
        for split, seed in (("train", 5), ("test", 6)):
            ds = synth_dataset("smooth_vs_textured", 8, seed)
            assert got[split] == evaluate(load_model(model), ds.images, ds.labels).summary()
        assert got["train"] != got["test"]

    @pytest.mark.parametrize("split, present", [("test", "test_batch.bin"),
                                                ("train", "data_batch_1.bin")])
    def test_cifar_reads_only_the_requested_split(self, model, tmp_path, capsys, split, present):
        # The other split's file is absent, so reading it would stop the run.
        d = tmp_path / "cifar"
        d.mkdir()
        write_cifar10_batch(d / present,
                            np.random.default_rng(0).integers(0, 256, (8, 3, 32, 32), np.uint8),
                            np.arange(8) % 2)
        assert main(["eval", "--model", model, "--data", str(d), "--split", split]) == 0
        ds = load_cifar10_split(d, split)
        assert json.loads(capsys.readouterr().out) == (
            evaluate(load_model(model), ds.images, ds.labels).summary())

    def test_export_ratios_takes_no_batch_size(self, model, tmp_path, capsys):
        # Nor do eval and analyze: every command evaluates at one batch size.
        for command, extra in (("export-ratios", ["--image", "0", "--out", str(tmp_path / "r")]),
                               ("eval", []),
                               ("analyze", ["--out", str(tmp_path / "cost.csv")])):
            code = main([command, "--model", model, "--data", "synthetic", "--synth-n", "8",
                         *extra, "--batch-size", "4"])
            assert code == 2, command
            assert "unrecognized arguments: --batch-size 4" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt", "model.json"]

    @pytest.mark.parametrize("batch", [8, 64])
    def test_export_ratios_writes_its_images_partition(self, tmp_path, capsys, batch):
        # Image 5's CSVs are sample 5 of the batch partition of an eval
        # forward over the split's first images, layer by layer.
        model = save_model(tmp_path, "cac_small")
        out = tmp_path / "ratios"
        assert main(["export-ratios", "--model", model, "--data", "synthetic",
                     "--synth-n", "64", "--image", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        net = load_model(model)
        net.forward(synth_dataset("smooth_vs_textured", 64, 1).images[:batch], train=False)
        for name, layer in net.cac_layers():
            assert layer.partition[5].to_csv() != layer.partition[0].to_csv()
            assert (out / f"{name}.csv").read_text() == layer.partition[5].to_csv()

    def test_export_ratios_of_ungated_model_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "ratios"
        code = main(["export-ratios", "--model", save_model(tmp_path, "conv_small"),
                     "--data", "synthetic", "--synth-n", "8", "--image", "0",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: model has no gated layers to export"]
        assert not out.exists()


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
        assert json.loads(proc.stdout)["n"] == RunConfig().dataset.synth_test_n

    @pytest.mark.parametrize("width", [10 ** 12, 2 ** 62], ids=["past_memory", "past_array_size"])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_huge_layer_width(self, tmp_path, command, width):
        # eval reads the spec from model.json, train from its config.
        spec = resolve_model_spec("cac_tiny_synth")
        spec["layers"][0]["out"] = width
        if command == "eval":
            proc = self.eval_with_spec(tmp_path, json.dumps({"model": spec}))
        else:
            cfg_path = write_tiny_config(tmp_path, model=spec)
            proc = run_cli("train", "--config", str(cfg_path), "--quiet")
        self.assert_clean_failure(proc)
        assert "error: layer 0 (cac_conv): cannot allocate its parameters" in proc.stderr

    @pytest.mark.parametrize("n", [10 ** 12, 2 ** 62], ids=["past_memory", "past_array_size"])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_huge_synthetic_set(self, tmp_path, command, n):
        if command == "eval":
            proc = self.eval_untrained(tmp_path, "--synth-n", str(n))
        else:
            cfg_path = write_tiny_config(tmp_path, dataset={"synth_n": n})
            proc = run_cli("train", "--config", str(cfg_path), "--quiet")
        self.assert_clean_failure(proc)
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: cannot allocate {n} synthetic images: ")

    @pytest.mark.parametrize("block, expected", [
        (None, "error: unknown model spec keys: ['bogus']"),
        ("input", "error: unknown model spec 'input' keys: ['bogus']"),
    ], ids=["top_level", "input"])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_unknown_key_in_model_spec(self, tmp_path, command, block, expected):
        spec = resolve_model_spec("cac_tiny_synth")
        (spec[block] if block else spec)["bogus"] = 1
        if command == "eval":
            proc = self.eval_with_spec(tmp_path, json.dumps({"model": spec}))
        else:
            cfg_path = write_tiny_config(tmp_path, model=spec)
            proc = run_cli("train", "--config", str(cfg_path), "--quiet")
        self.assert_clean_failure(proc)
        assert expected in proc.stderr

    def eval_untrained(self, tmp_path, *flags, command="eval"):
        """``eval`` (or another ``command`` that reads a checkpoint) of a
        freshly built ``cac_tiny_synth`` on 8 synthetic images."""
        spec = resolve_model_spec("cac_tiny_synth")
        net = Network.build(spec, rng=np.random.default_rng(0))
        save_checkpoint(tmp_path / "model.ckpt", net.state_dict())
        (tmp_path / "model.json").write_text(json.dumps({"model": spec}))
        return run_cli(command, "--model", str(tmp_path / "model.ckpt"), "--data", "synthetic",
                       "--synth-n", "8", *flags)

    @pytest.mark.parametrize("command", ["eval", "analyze", "export-ratios"])
    @pytest.mark.parametrize("flags", [
        ["--synth-seed", "-1"],
        ["--subset", "3", "--subset-seed", "-1"],
    ], ids=["synth_seed", "subset_seed"])
    def test_negative_seed_flag(self, tmp_path, command, flags):
        extra = {"eval": [], "analyze": ["--out", str(tmp_path / "cost.csv")],
                 "export-ratios": ["--image", "0", "--out", str(tmp_path / "ratios")]}
        proc = self.eval_untrained(tmp_path, *flags, *extra[command], command=command)
        self.assert_clean_failure(proc)
        assert "seed must be non-negative, got -1" in proc.stderr

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_non_positive_eval_batch_size(self, batch_size):
        # No command takes a batch size; evaluate's own check is reached directly.
        net = Network.build(resolve_model_spec("cac_tiny_synth"), rng=np.random.default_rng(0))
        ds = synth_dataset("smooth_vs_textured", 8, 0)
        with pytest.raises(InvalidArgument, match=f"batch size must be >= 1, got {batch_size}"):
            evaluate(net, ds.images, ds.labels, batch_size=batch_size)

    @pytest.mark.parametrize("subset", ["-2", "0", "100000"])
    def test_out_of_range_eval_subset(self, tmp_path, subset):
        proc = self.eval_untrained(tmp_path, "--subset", subset)
        self.assert_clean_failure(proc)
        assert "subset size must lie in [1, 8]" in proc.stderr

    def test_eval_subset_of_synthetic_data(self, tmp_path):
        proc = self.eval_untrained(tmp_path, "--subset", "3")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["n"] == 3

    @pytest.mark.parametrize("dataset", [
        {"kind": "synthetic", "synth_n": 64, "synth_test_n": 32, "subset_size": -2},
        {"kind": "synthetic", "synth_n": 64, "synth_test_n": 32, "subset_size": 0},
        {"kind": "synthetic", "synth_n": 64, "synth_test_n": 32, "test_subset_size": 0},
        {"kind": "synthetic", "synth_n": 64, "synth_test_n": 32, "test_subset_size": 100000},
    ], ids=["negative_subset", "zero_subset", "zero_test_subset", "oversized_test_subset"])
    def test_out_of_range_subset_in_config(self, tmp_path, dataset):
        cfg_path = write_tiny_config(tmp_path, dataset=dataset)
        proc = run_cli("train", "--config", str(cfg_path), "--quiet")
        self.assert_clean_failure(proc)
        assert "subset size must lie in" in proc.stderr

    @pytest.mark.parametrize("overrides, expected", [
        ({"seed": -1}, "seed must be non-negative"),
        ({"dataset": {"kind": "synthetic", "synth_n": 64, "synth_test_n": 32, "synth_seed": -1}},
         "seed must be non-negative"),
        ({"optimizer": {"lr": 0.05, "decay_factor": 0}}, "decay_factor must be positive"),
        ({"optimizer": {"lr": 0.05, "decay_factor": -1}}, "decay_factor must be positive"),
        ({"optimizer": {"decay_epochs": [2, -3]}}, "decay_epochs entries must be non-negative"),
        ({"lambda": float("inf")}, "lambda must be a finite number, got inf"),
        ({"optimizer": {"lr": float("inf")}}, "optimizer.lr must be a finite number, got inf"),
        ({"optimizer": {"lr": 0.05, "decay_factor": float("inf")}},
         "optimizer.decay_factor must be a finite number, got inf"),
        ({"optimizer": {"lr": 0.05, "weight_decay": float("inf")}},
         "optimizer.weight_decay must be a finite number, got inf"),
    ], ids=["negative_seed", "negative_synth_seed", "zero_decay_factor",
            "negative_decay_factor", "negative_decay_epoch", "infinite_lambda", "infinite_lr",
            "infinite_decay_factor", "infinite_weight_decay"])
    def test_out_of_range_value_in_config(self, tmp_path, overrides, expected):
        cfg_path = write_tiny_config(tmp_path, **overrides)
        proc = run_cli("train", "--config", str(cfg_path), "--quiet")
        self.assert_clean_failure(proc)
        assert expected in proc.stderr
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_non_utf8_config(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(b'{"output_dir": "\xff"}')
        proc = run_cli("train", "--config", str(cfg_path), "--quiet")
        self.assert_clean_failure(proc)
        assert "malformed JSON config" in proc.stderr

    def test_non_utf8_model_json(self, tmp_path):
        (tmp_path / "model.json").write_bytes(b'{"model": "\xff"}')
        proc = run_cli("eval", "--model", str(tmp_path / "model.ckpt"), "--data", "synthetic")
        self.assert_clean_failure(proc)
        assert "malformed JSON model spec" in proc.stderr

    # Byte offsets in a one-tensor checkpoint named "w": the name at 16,
    # the first dim at 22 (after the dtype tag and the rank), the second at 30.
    @pytest.mark.parametrize("offset, patch, expected", [
        (16, b"\xff", "tensor 0: name is not valid UTF-8"),
        (22, struct.pack("<Q", 2 ** 62), "truncated reading tensor 0 (w): payload"),
        (22, struct.pack("<QQ", 2 ** 62, 0),
         "tensor 0 (w): shape (4611686018427387904, 0) is too large"),
        (22, struct.pack("<QQ", 2 ** 63, 0),
         "tensor 0 (w): shape (9223372036854775808, 0) is too large"),
    ], ids=["non_utf8_tensor_name", "huge_dim", "zero_size_huge_dim", "zero_size_dim_over_2_63"])
    def test_corrupt_checkpoint(self, tmp_path, offset, patch, expected):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, {"w": np.ones((2, 2), dtype=np.float32)})
        raw = bytearray(ckpt.read_bytes())
        raw[offset:offset + len(patch)] = patch
        ckpt.write_bytes(bytes(raw))
        proc = self.eval_with_spec(
            tmp_path, json.dumps({"model": resolve_model_spec("cac_tiny_synth")}))
        self.assert_clean_failure(proc)
        assert expected in proc.stderr

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

    def test_softmax_ce_before_the_last_layer(self, tmp_path):
        layers = [{"type": "conv", "out": 4, "k": 3}, {"type": "relu"},
                  {"type": "global_avgpool"}, {"type": "linear", "out": 2}]
        spec = {"input": {"channels": 3, "size": 32}, "num_classes": 2, "layers": layers}
        # Tensor names that fit the spec below with its marker dropped, so
        # that only the marker's position can fail it.
        save_checkpoint(tmp_path / "model.ckpt",
                        Network.build(spec, rng=np.random.default_rng(0)).state_dict())
        layers[1] = {"type": "softmax_ce"}
        proc = self.eval_with_spec(tmp_path, json.dumps({"model": spec}))
        self.assert_clean_failure(proc)
        assert "error: layer 1 (softmax_ce): " in proc.stderr


# What cli.main turns into an ``error:`` line and exit 1.
MAPPED_ERRORS = (InvalidArgument, DataFormatError, NumericFailure, OSError)

FUZZ_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def checkpoint_layout(raw: bytes) -> tuple:
    """(offset, width) of every u32 and u64 header field of a checkpoint,
    and (offset, float count) of every non-empty tensor payload."""
    found, payloads = [(4, 4), (8, 4)], []   # version, tensor count
    off = 12
    for _ in range(struct.unpack_from("<I", raw, 8)[0]):
        found.append((off, 4))   # name length
        off += 4 + struct.unpack_from("<I", raw, off)[0] + 1
        rank = struct.unpack_from("<I", raw, off)[0]
        dims = struct.unpack_from(f"<{rank}Q", raw, off + 4)
        found += [(off, 4)] + [(off + 4 + 8 * d, 8) for d in range(rank)]
        off += 4 + 8 * rank
        if math.prod(dims):
            payloads.append((off, math.prod(dims)))
        off += 4 * math.prod(dims)
    return found, payloads


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """``raw`` with one byte flipped, or cut short."""
    pos = draw(st.integers(0, len(raw) - 1))
    if draw(st.booleans()):
        return raw[:pos]
    out = bytearray(raw)
    out[pos] ^= draw(st.integers(1, 255))
    return bytes(out)


@st.composite
def rewritten_field(draw, raw: bytes) -> bytes:
    """``raw`` with one header field set to a drawn integer."""
    off, width = draw(st.sampled_from(checkpoint_layout(raw)[0]))
    value = draw(st.sampled_from([0, 1, 2 ** 31, 2 ** 62, 2 ** 63, 2 ** 64 - 1])
                 | st.integers(0, 2 ** 64 - 1))
    out = bytearray(raw)
    out[off:off + width] = (value % 2 ** (8 * width)).to_bytes(width, "little")
    return bytes(out)


@st.composite
def nonfinite_value(draw, raw: bytes) -> bytes:
    """``raw`` with one tensor element set to inf, -inf or NaN."""
    off, count = draw(st.sampled_from(checkpoint_layout(raw)[1]))
    out = bytearray(raw)
    struct.pack_into("<f", out, off + 4 * draw(st.integers(0, count - 1)),
                     draw(st.sampled_from([math.inf, -math.inf, math.nan])))
    return bytes(out)


class TestReaderFuzz:
    """Every reader of a user file, given a damaged copy of a valid one,
    returns or raises only what ``cli.main`` reports as ``error:``."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz")
        spec = resolve_model_spec("cac_tiny_synth")
        save_checkpoint(d / "model.ckpt",
                        Network.build(spec, rng=np.random.default_rng(0)).state_dict())
        # A valid checkpoint may hold zero-size tensors.
        save_checkpoint(d / "small.ckpt", {"w": np.ones((2, 3), np.float32),
                                           "empty": np.zeros((0, 4), np.float32)})
        (d / "model.json").write_text(json.dumps({"model": spec}, separators=(",", ":")))
        write_tiny_config(d)
        rng = np.random.default_rng(0)
        # Labels the 2-class model can output, so that eval of it succeeds.
        write_cifar10_batch(d / "batch.bin", rng.integers(0, 256, (2, 3, 32, 32), np.uint8),
                            np.array([1, 0]))
        return d

    @staticmethod
    def check(call, *args):
        try:
            call(*args)
        except MAPPED_ERRORS:
            pass

    @FUZZ_SETTINGS
    @given(data=st.data(), name=st.sampled_from(["model.ckpt", "small.ckpt"]))
    def test_checkpoint(self, files, data, name):
        raw = (files / name).read_bytes()
        path = files / "fuzzed" / "model.ckpt"
        path.parent.mkdir(exist_ok=True)
        (files / "fuzzed" / "model.json").write_bytes((files / "model.json").read_bytes())
        path.write_bytes(data.draw(damaged(raw) | rewritten_field(raw)))
        self.check(load_checkpoint, path)
        self.check(load_model, path)

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_model_json(self, files, data):
        spec = files / "fuzzed_spec.json"
        spec.write_bytes(data.draw(damaged((files / "model.json").read_bytes())))
        self.check(load_model, files / "model.ckpt", spec)

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_config(self, files, data):
        path = files / "fuzzed_config.json"
        path.write_bytes(data.draw(damaged((files / "config.json").read_bytes())))
        self.check(load_config, path)

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_cifar_batch(self, files, data):
        path = files / "fuzzed_batch.bin"
        path.write_bytes(data.draw(damaged((files / "batch.bin").read_bytes())))
        self.check(parse_cifar10_file, path)

    @FUZZ_SETTINGS
    @given(data=st.data(), target=st.sampled_from(["model.ckpt", "model.json", "batch.bin"]))
    def test_eval_command(self, files, data, target):
        """``cacconv eval`` with one of its files damaged exits 0, or 1 with
        one ``error:`` line; a NaN in any tensor, or a non-finite weight,
        always ends in 1.  An inf gate parameter may not: with beta = +inf
        every window routes sharp, a finite result."""
        inputs = {name: (files / name).read_bytes()
                  for name in ("model.ckpt", "model.json", "batch.bin")}
        mutations = damaged(inputs[target])
        if target == "model.ckpt":
            mutations |= rewritten_field(inputs[target]) | nonfinite_value(inputs[target])
        inputs[target] = data.draw(mutations)
        d = files / "fuzzed_eval"
        d.mkdir(exist_ok=True)
        (d / "model.ckpt").write_bytes(inputs["model.ckpt"])
        (d / "model.json").write_bytes(inputs["model.json"])
        (d / "data_batch_1.bin").write_bytes((files / "batch.bin").read_bytes())
        (d / "test_batch.bin").write_bytes(inputs["batch.bin"])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["eval", "--model", str(d / "model.ckpt"), "--data", str(d)])
        if code == 0:
            assert "top1_error" in json.loads(out.getvalue())
        else:
            assert code == 1
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error:")
        try:
            tensors = load_checkpoint(d / "model.ckpt")
        except DataFormatError:
            return
        if any(np.isnan(v).any() or k.endswith(".weight") and not np.isfinite(v).all()
               for k, v in tensors.items()):
            assert code == 1


    DEEP = "[" * 200_000 + "]" * 200_000

    def assert_one_error_line(self, proc, expected):
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(expected), line

    def test_deeply_nested_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(self.DEEP)
        self.assert_one_error_line(run_cli("train", "--config", str(path), "--quiet"),
                                   f"error: {path}: malformed JSON config: ")

    def test_deeply_nested_model_json(self, tmp_path):
        save_model(tmp_path, "cac_tiny_synth")
        (tmp_path / "model.json").write_text('{"model": ' + self.DEEP + "}")
        proc = run_cli("eval", "--model", str(tmp_path / "model.ckpt"), "--data", "synthetic")
        self.assert_one_error_line(proc, f"error: {tmp_path / 'model.json'}: malformed JSON "
                                         "model spec: ")

    def test_deeply_nested_model_spec_in_config(self, tmp_path):
        # Deep enough to stop a recursive copy of the spec, shallow enough
        # for json.load.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": {"input": 0}}).replace(
            "0", "[" * 900 + "]" * 900))
        self.assert_one_error_line(run_cli("train", "--config", str(path), "--quiet"),
                                   "error: model spec missing 'num_classes'")


class TestVerifyCommand:
    def test_verify_fast_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all 4 checks passed" in out and "FAIL" not in out
        ok_names = [line.split()[1] for line in out.splitlines() if line.startswith("ok ")]
        assert ok_names == ["convolution:", "gated_dispatch:", "gradients:", "cost_model:"]

    def test_objective_prices_each_gated_layer(self, monkeypatch):
        # The objective instances' spec gates layer 0 alone; a second gated
        # layer must be priced by its own sharp fraction, not layer 0's.
        spec = json.loads(json.dumps(verify._OBJECTIVE_SPEC))
        spec["layers"][4]["type"] = "cac_conv"
        monkeypatch.setattr(verify, "_OBJECTIVE_SPEC", spec)
        m = verify.check_gradients(layer_instances=0, objective_instances=2, seed=303)
        assert m["worst_objective"] <= 1e-3, m["detail"]

    def test_verify_failure_prints_manifest(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "CONV_REL_TOL_F64", 0.0)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL convolution:")
        manifest = json.loads(out[out.index("\n{"):])
        assert [f["name"] for f in manifest["failures"]] == ["convolution"]
