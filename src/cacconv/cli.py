"""Command-line surface: train / eval / analyze / export-ratios / verify.

Configs are JSON mirroring RunConfig, with ``dataset`` and ``optimizer``
blocks.  All file outputs are atomic.
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
from .data import Dataset, load_cifar10_split, synth_dataset
from .errors import DataFormatError, InvalidArgument, NumericFailure
from .ioutil import atomic_write_text
from .layers import Network, resolve_model_spec  # noqa: F401  bench/workloads.py imports it from here
from .tensor import allocate, require
from .train import OptimizerConfig, evaluate, load_checkpoint, train_model
from .verify import run_all


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


def _json_key(f) -> str:
    """The JSON key of dataclass field ``f``: its name, unless the field
    names another (``RunConfig.lam`` is read from "lambda")."""
    return f.metadata.get("json_key", f.name)


def _from_json(cls, given, block=None):
    """Build the dataclass ``cls`` from a JSON object.  Its fields are the
    only list of keys, defaults and JSON types; a field annotated
    ``object`` (the model spec) is left to its own reader."""
    what = block or "config"
    require(isinstance(given, dict), f"{what} must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(given) - {_json_key(f) for f in fields(cls)})
    require(not unknown, f"unknown {what} keys: {unknown}")
    values = {}
    for f in fields(cls):
        key = _json_key(f)
        if key not in given:
            continue
        value, hint = given[key], hints[f.name]
        if is_dataclass(hint):
            value = _from_json(hint, value, key)
        elif hint is not object:
            label = f"{block}.{key}" if block else key
            require(_has_type(value, hint),
                    f"{label} must be {_type_name(hint)}, got {value!r}")
        values[f.name] = value
    return cls(**values)


@dataclass
class DatasetConfig:
    """The ``dataset`` block of a RunConfig; ``read_split`` reads its splits."""

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
    """One experiment, loadable from a JSON config with ``dataset`` and
    ``optimizer`` blocks (the 'lambda' key maps to ``lam``)."""

    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: object = "cac_small"
    lam: float = field(default=0.3, metadata={"json_key": "lambda"})
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
        return _from_json(RunConfig, d)


def _load_json(path, what):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        # Bad syntax, bad UTF-8, an integer too long to read, or nesting too deep.
        except (ValueError, RecursionError) as exc:
            raise InvalidArgument(f"{path}: malformed JSON {what}: {exc}") from None


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(_load_json(path, "config"))


def load_datasets(cfg: RunConfig) -> tuple:
    """(train Dataset, test Dataset) for a config."""
    return read_split(cfg.dataset, "train", cfg.seed), read_split(cfg.dataset, "test", cfg.seed + 1)


def read_split(ds: DatasetConfig, split: str, subset_seed: int) -> Dataset:
    """Split ``split`` ("train" or "test") of ``ds``, cut to its subset size by a shuffle from
    ``subset_seed``.  Synthetic "train" has ``synth_n`` images from ``synth_seed``, "test"
    ``synth_test_n`` from ``synth_seed + 1``: the seed is checked first, as -1 + 1 would pass."""
    test = split == "test"
    if ds.kind == "cifar10":
        require(ds.path, "dataset.path is required for cifar10")
        data = load_cifar10_split(ds.path, split)
    else:
        require(ds.kind == "synthetic", f"unknown dataset kind {ds.kind!r}")
        require(ds.synth_seed >= 0, f"synthetic seed must be non-negative, got {ds.synth_seed}")
        n = ds.synth_test_n if test else ds.synth_n
        data = allocate(f"{n} synthetic images", synth_dataset,
                        ds.synth_kind, n, ds.synth_seed + test)
    size = ds.test_subset_size if test else ds.subset_size
    return data if size is None else data.subset(size, subset_seed)


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


def _flag_split(args) -> Dataset:
    """Split ``--split`` of the flags' data; a flag left out takes a default config's."""
    test = args.split == "test"
    given = {"kind": "cifar10", "path": args.data} if args.data != "synthetic" else {}
    given |= {"synth_kind": args.synth_kind, "synth_seed": args.synth_seed,
              "synth_test_n" if test else "synth_n": args.synth_n,
              "test_subset_size" if test else "subset_size": args.subset}
    ds = DatasetConfig(**{k: v for k, v in given.items() if v is not None})
    seed = RunConfig.seed + test if args.subset_seed is None else args.subset_seed
    return read_split(ds, args.split, seed)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train, test = load_datasets(cfg)
    result = train_model(
        cfg, train.images, train.labels, test.images, test.labels,
        progress=not args.quiet,
    )
    # The last epoch's evaluation, when it ran one, is of this net on these images.
    res = result.last_eval
    if res is None:
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
    ds = _flag_split(args)
    res = evaluate(net, ds.images, ds.labels)
    print(json.dumps(res.summary(), indent=2))
    return 0


def cmd_analyze(args) -> int:
    net = load_model(args.model, args.model_spec)
    ds = _flag_split(args)
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
    ds = _flag_split(args)
    require(0 <= args.image < len(ds), f"image index {args.image} out of range [0, {len(ds)})")
    net.forward(ds.images[args.image:args.image + 1], train=False)
    os.makedirs(args.out, exist_ok=True)
    for name, layer in gated:
        path = os.path.join(args.out, f"{name}.csv")
        atomic_write_text(path, layer.partition[0].to_csv())
        print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
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
        sp.add_argument("--subset", type=int)
        sp.add_argument("--subset-seed", type=int, help="default follows --split")
        sp.add_argument("--synth-kind")
        sp.add_argument("--synth-n", type=int, help="default follows --split")
        sp.add_argument("--synth-seed", type=int)
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
