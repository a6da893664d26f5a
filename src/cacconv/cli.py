"""Command-line surface: train / eval / analyze / export-ratios / verify.

Configs are flat JSON mirroring RunConfig.  All file outputs are atomic.
Exit codes: 0 success, 1 run or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .cost import model_cost
from .data import Dataset, load_cifar10, synth_dataset
from .errors import DataFormatError, InvalidArgument, NumericFailure
from .ioutil import atomic_write_text
from .layers import Network, resolve_model_spec  # noqa: F401  resolve_model_spec is re-exported
from .tensor import require
from .train import OptimizerConfig, evaluate, load_checkpoint, train_model


_DATASET_DEFAULTS = {
    "kind": "synthetic",
    "path": None,
    "subset_size": None,
    "test_subset_size": None,
    "synth_kind": "smooth_vs_textured",
    "synth_n": 512,
    "synth_test_n": 256,
    "synth_seed": 0,
}

# JSON type of each config field; float also takes integers, no numeric
# field takes true/false, and a nested field whose default is null also
# takes null.
_SCALAR_TYPES = {
    "seed": int, "lam": float, "epochs": int, "batch_size": int,
    "output_dir": str, "eval_every": int, "penalty_warmup_epochs": int,
    "augment": bool,
}
_BLOCK_TYPES = {
    "dataset": {
        "kind": str, "path": str, "subset_size": int, "test_subset_size": int,
        "synth_kind": str, "synth_n": int, "synth_test_n": int, "synth_seed": int,
    },
    "optimizer": {
        "lr": float, "momentum": float, "weight_decay": float, "nesterov": bool,
        "decay_epochs": list, "decay_factor": float,
    },
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false", list: "a list of integers"}


def _has_type(value, kind) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is list:
        return isinstance(value, list) and all(_has_type(v, int) for v in value)
    return isinstance(value, (int, float) if kind is float else kind)


def _optimizer_defaults() -> dict:
    return asdict(OptimizerConfig())


@dataclass
class RunConfig:
    """One experiment, loadable from flat JSON (the 'lambda' key maps to
    ``lam``)."""

    seed: int = 0
    dataset: dict = field(default_factory=lambda: dict(_DATASET_DEFAULTS))
    model: object = "cac_small"
    lam: float = 0.3
    optimizer: dict = field(default_factory=_optimizer_defaults)
    epochs: int = 20
    batch_size: int = 64
    output_dir: str = "runs/run"
    eval_every: int = 0
    penalty_warmup_epochs: int = 0
    augment: bool = False

    def __post_init__(self):
        for name, kind in _SCALAR_TYPES.items():
            value = getattr(self, name)
            label = "lambda" if name == "lam" else name
            require(_has_type(value, kind),
                    f"{label} must be {_TYPE_NAMES[kind]}, got {value!r}")
        require(self.lam >= 0, f"lambda must be non-negative, got {self.lam}")
        require(self.epochs >= 1, "epochs must be >= 1")
        require(self.batch_size >= 1, "batch_size must be >= 1")
        require(self.eval_every >= 0, "eval_every must be >= 0")
        require(self.penalty_warmup_epochs >= 0, "penalty_warmup_epochs must be >= 0")

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        require(isinstance(d, dict), "config must be a JSON object")
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        known = {
            "seed", "dataset", "model", "lam", "optimizer", "epochs",
            "batch_size", "output_dir", "eval_every", "penalty_warmup_epochs",
            "augment",
        }
        unknown = sorted(set(d) - known)
        require(not unknown, f"unknown config keys: {unknown}")
        for blockname, defaults in (("dataset", _DATASET_DEFAULTS),
                                    ("optimizer", _optimizer_defaults())):
            block = dict(defaults)
            given = d.get(blockname, {})
            require(isinstance(given, dict), f"{blockname} must be a JSON object")
            bad = sorted(set(given) - set(defaults))
            require(not bad, f"unknown {blockname} keys: {bad}")
            for key, value in given.items():
                kind, nullable = _BLOCK_TYPES[blockname][key], defaults[key] is None
                require((nullable and value is None) or _has_type(value, kind),
                        f"{blockname}.{key} must be {_TYPE_NAMES[kind]}"
                        f"{' or null' if nullable else ''}, got {value!r}")
            block.update(given)
            d[blockname] = block
        return RunConfig(**d)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise InvalidArgument(f"{path}: malformed JSON config: {exc}") from None
    return RunConfig.from_dict(raw)


def load_datasets(cfg: RunConfig) -> tuple:
    """(train Dataset, test Dataset) for a config."""
    ds = cfg.dataset
    if ds["kind"] == "cifar10":
        require(ds["path"], "dataset.path is required for cifar10")
        train, test = load_cifar10(ds["path"])
        if ds["subset_size"]:
            train = train.subset(ds["subset_size"], cfg.seed)
        if ds["test_subset_size"]:
            test = test.subset(ds["test_subset_size"], cfg.seed + 1)
        return train, test
    if ds["kind"] == "synthetic":
        train = synth_dataset(ds["synth_kind"], ds["synth_n"], ds["synth_seed"])
        test = synth_dataset(ds["synth_kind"], ds["synth_test_n"], ds["synth_seed"] + 1)
        return train, test
    raise InvalidArgument(f"unknown dataset kind {ds['kind']!r}")


def load_model(ckpt_path, model_spec_path=None) -> Network:
    spec_path = model_spec_path or os.path.join(os.path.dirname(ckpt_path), "model.json")
    if not os.path.exists(spec_path):
        raise InvalidArgument(
            f"model spec not found at {spec_path}; pass --model-spec explicitly"
        )
    with open(spec_path, "r", encoding="utf-8") as f:
        try:
            meta = json.load(f)
        except json.JSONDecodeError as exc:
            raise InvalidArgument(f"{spec_path}: malformed JSON model spec: {exc}") from None
    require(isinstance(meta, dict) and "model" in meta,
            f"{spec_path}: model spec must be a JSON object with a 'model' key")
    net = Network.build(meta["model"], rng=np.random.default_rng(0))
    net.load_state_dict(load_checkpoint(ckpt_path))
    return net


def _eval_dataset(args) -> Dataset:
    if args.data == "synthetic":
        return synth_dataset(args.synth_kind, args.synth_n, args.synth_seed)
    train, test = load_cifar10(args.data)
    ds = train if args.split == "train" else test
    if args.subset:
        ds = ds.subset(args.subset, args.subset_seed)
    return ds


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train, test = load_datasets(cfg)
    result = train_model(
        cfg, train.images, train.labels, test.images, test.labels,
        progress=not args.quiet,
    )
    res = evaluate(result.net, test.images, test.labels)
    summary = {
        "checkpoint": result.checkpoint_path,
        "metrics": result.metrics_path,
        "final": res.summary(),
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_eval(args) -> int:
    net = load_model(args.model, args.model_spec)
    ds = _eval_dataset(args)
    res = evaluate(net, ds.images, ds.labels, batch_size=args.batch_size)
    print(json.dumps(res.summary(), indent=2))
    return 0


def cmd_analyze(args) -> int:
    net = load_model(args.model, args.model_spec)
    ds = _eval_dataset(args)
    res = evaluate(net, ds.images, ds.labels, batch_size=args.batch_size)
    specs = net.cost_specs()
    rhos = [res.per_sample_rho[s.layer_id] if s.cac else 1.0 for s in specs]
    report = model_cost(specs, rhos)
    out = args.out
    base, _ = os.path.splitext(out)
    atomic_write_text(out, report.to_csv())
    atomic_write_text(base + ".totals.json", report.totals_json())
    print(f"wrote {out} and {base + '.totals.json'}")
    return 0


def cmd_export_ratios(args) -> int:
    net = load_model(args.model, args.model_spec)
    ds = _eval_dataset(args)
    require(0 <= args.image < len(ds), f"image index {args.image} out of range [0, {len(ds)})")
    net.forward(ds.images[args.image:args.image + 1], train=False)
    os.makedirs(args.out, exist_ok=True)
    written = []
    for name, layer in net.cac_layers():
        require(layer.last_partitions is not None, f"layer {name} produced no partitions")
        path = os.path.join(args.out, f"{name}.csv")
        atomic_write_text(path, layer.last_partitions[0].to_csv())
        written.append(path)
    require(written, "model has no gated layers to export")
    for p in written:
        print(f"wrote {p}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(fast=not args.full)
    ok = True
    for r in results:
        status = "ok" if r["ok"] else "FAIL"
        print(f"{status:4s} {r['name']}: {r['detail']}")
        ok = ok and r["ok"]
    if not ok:
        manifest = {"failures": [r for r in results if not r["ok"]]}
        print(json.dumps(manifest, indent=2))
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cacconv",
        description="Content-aware convolution engine: train, evaluate, and "
                    "analyze gradient-gated convolution models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(func=cmd_train)

    def add_data_args(sp):
        sp.add_argument("--data", required=True,
                        help="CIFAR-10 binary directory, or 'synthetic'")
        sp.add_argument("--split", choices=("train", "test"), default="test")
        sp.add_argument("--subset", type=int, default=0)
        sp.add_argument("--subset-seed", type=int, default=0)
        sp.add_argument("--synth-kind", default="smooth_vs_textured")
        sp.add_argument("--synth-n", type=int, default=512)
        sp.add_argument("--synth-seed", type=int, default=0)
        sp.add_argument("--batch-size", type=int, default=256)
        sp.add_argument("--model-spec", default=None,
                        help="model.json path (default: next to the checkpoint)")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--model", required=True)
    add_data_args(e)
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("analyze", help="write the per-layer cost report")
    a.add_argument("--model", required=True)
    a.add_argument("--out", required=True, help="output CSV path")
    add_data_args(a)
    a.set_defaults(func=cmd_analyze)

    x = sub.add_parser("export-ratios", help="write per-layer score-map CSVs")
    x.add_argument("--model", required=True)
    x.add_argument("--image", type=int, required=True)
    x.add_argument("--out", required=True, help="output directory")
    add_data_args(x)
    x.set_defaults(func=cmd_export_ratios)

    v = sub.add_parser("verify", help="run the built-in correctness suite")
    v.add_argument("--full", action="store_true",
                   help="run acceptance checks 1-4 at their own counts and seeds (slower)")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (InvalidArgument, DataFormatError, NumericFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
