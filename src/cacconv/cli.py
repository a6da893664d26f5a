"""Command-line surface: train / eval / analyze / export-ratios / verify.

Configs are flat JSON mirroring RunConfig.  All file outputs are atomic.
Exit codes: 0 success, 1 run or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .cost import model_cost
from .data import Dataset, load_cifar10, synth_dataset
from .errors import DataFormatError, InvalidArgument, NumericFailure
from .ioutil import atomic_write_text
from .layers import Network, resolve_model_spec  # noqa: F401  bench/workloads.py imports it from here
from .tensor import require
from .train import OptimizerConfig, evaluate, load_checkpoint, train_model


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "true or false", list[int]: "a list of integers"}


def _has_type(value, hint) -> bool:
    """JSON type check: float takes any number finite as a float, integers
    included; no number takes true/false; ``X | None`` also takes null."""
    if typing.get_origin(hint) is list:
        item, = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # finite as a float: no inf, nan or overlong integer
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _type_name(hint) -> str:
    if isinstance(hint, types.UnionType):
        inner, = (h for h in typing.get_args(hint) if h is not type(None))
        return _TYPE_NAMES[inner] + " or null"
    return _TYPE_NAMES[hint]


def _from_json(cls, given, block=None):
    """Build the dataclass ``cls`` from a JSON object.  Its fields are the
    only list of keys, defaults and JSON types; a field annotated
    ``object`` (the model spec) is left to its own reader."""
    what = block or "config"
    require(isinstance(given, dict), f"{what} must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(given) - {f.name for f in fields(cls)})
    require(not unknown, f"unknown {what} keys: {unknown}")
    values = {}
    for f in fields(cls):
        if f.name not in given:
            continue
        value, hint = given[f.name], hints[f.name]
        if is_dataclass(hint):
            value = _from_json(hint, value, f.name)
        elif hint is not object:
            key = "lambda" if f.name == "lam" else f.name
            label = f"{block}.{key}" if block else key
            require(_has_type(value, hint),
                    f"{label} must be {_type_name(hint)}, got {value!r}")
        values[f.name] = value
    return cls(**values)


@dataclass
class DatasetConfig:
    """The ``dataset`` block of a RunConfig, read by ``load_datasets``."""

    kind: str = "synthetic"
    path: str | None = None
    subset_size: int | None = None
    test_subset_size: int | None = None
    synth_kind: str = "smooth_vs_textured"
    synth_n: int = 512
    synth_test_n: int = 256
    synth_seed: int = 0


@dataclass
class RunConfig:
    """One experiment, loadable from flat JSON (the 'lambda' key maps to
    ``lam``)."""

    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: object = "cac_small"
    lam: float = 0.3
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epochs: int = 20
    batch_size: int = 64
    output_dir: str = "runs/run"
    eval_every: int = 0
    penalty_warmup_epochs: int = 0
    augment: bool = False

    def __post_init__(self):
        require(self.seed >= 0, f"seed must be non-negative, got {self.seed}")
        require(self.lam >= 0, f"lambda must be non-negative, got {self.lam}")
        require(self.epochs >= 1, "epochs must be >= 1")
        require(self.batch_size >= 1, "batch_size must be >= 1")
        require(self.eval_every >= 0, "eval_every must be >= 0")
        require(self.penalty_warmup_epochs >= 0, "penalty_warmup_epochs must be >= 0")

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        if isinstance(d, dict) and "lambda" in d:
            d = dict(d)
            d["lam"] = d.pop("lambda")
        return _from_json(RunConfig, d)


def _load_json(path, what):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as exc:  # bad syntax, bad UTF-8, or an integer too long to read
            raise InvalidArgument(f"{path}: malformed JSON {what}: {exc}") from None


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(_load_json(path, "config"))


def load_datasets(cfg: RunConfig) -> tuple:
    """(train Dataset, test Dataset) for a config."""
    ds = cfg.dataset
    if ds.kind == "cifar10":
        require(ds.path, "dataset.path is required for cifar10")
        train, test = load_cifar10(ds.path)
    elif ds.kind == "synthetic":
        train = synth_dataset(ds.synth_kind, ds.synth_n, ds.synth_seed)
        test = synth_dataset(ds.synth_kind, ds.synth_test_n, ds.synth_seed + 1)
    else:
        raise InvalidArgument(f"unknown dataset kind {ds.kind!r}")
    if ds.subset_size:
        train = train.subset(ds.subset_size, cfg.seed)
    if ds.test_subset_size:
        test = test.subset(ds.test_subset_size, cfg.seed + 1)
    return train, test


def load_model(ckpt_path, model_spec_path=None) -> Network:
    spec_path = model_spec_path or os.path.join(os.path.dirname(ckpt_path), "model.json")
    if not os.path.exists(spec_path):
        raise InvalidArgument(
            f"model spec not found at {spec_path}; pass --model-spec explicitly"
        )
    meta = _load_json(spec_path, "model spec")
    require(isinstance(meta, dict) and "model" in meta,
            f"{spec_path}: model spec must be a JSON object with a 'model' key")
    net = Network.build(meta["model"], rng=np.random.default_rng(0))
    net.load_state_dict(load_checkpoint(ckpt_path))
    return net


def _eval_dataset(args) -> Dataset:
    if args.data == "synthetic":
        # The test split is drawn from the next seed, as in load_datasets;
        # the seed is checked first, since -1 + 1 would pass.
        require(args.synth_seed >= 0,
                f"synthetic seed must be non-negative, got {args.synth_seed}")
        seed = args.synth_seed + (args.split == "test")
        ds = synth_dataset(args.synth_kind, args.synth_n, seed)
    else:
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
    res = evaluate(net, ds.images, ds.labels)
    print(json.dumps(res.summary(), indent=2))
    return 0


def cmd_analyze(args) -> int:
    net = load_model(args.model, args.model_spec)
    ds = _eval_dataset(args)
    res = evaluate(net, ds.images, ds.labels)
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
    gated = net.cac_layers()
    require(gated, "model has no gated layers to export")
    ds = _eval_dataset(args)
    require(0 <= args.image < len(ds), f"image index {args.image} out of range [0, {len(ds)})")
    net.forward(ds.images[args.image:args.image + 1], train=False)
    os.makedirs(args.out, exist_ok=True)
    for name, layer in gated:
        path = os.path.join(args.out, f"{name}.csv")
        atomic_write_text(path, layer.last_partitions[0].to_csv())
        print(f"wrote {path}")
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
        # The commands check non-finite values themselves and report them
        # as one error line, so numpy's warnings would only repeat it.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (InvalidArgument, DataFormatError, NumericFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
