"""Command-line pipeline: build, extend, and evaluate meta-embeddings.

Set arguments take the form ``name=path[:weight[:colnorm]]``; weight
defaults to 1 and the literal ``colnorm`` suffix enables per-dimension
normalization for that set.  Training options can also come from a JSON
config file (keys named after the TrainConfig fields); explicit flags
win over the file, and any other key than ``sets``, ``method``, ``dim``
and ``strategy`` is an error.  An option that the chosen command or
method never reads is accepted with a warning on stderr.  Dataset paths
are resolved against the ``METAEMBED_DATA_DIR`` environment variable
when not found directly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from . import ensemble, oov
from .evaluate import (
    EvalResult,
    eval_analogy,
    eval_similarity,
    load_analogy_dataset,
    load_similarity_dataset,
)
from .io import EmbeddingSet, load_embedding_set, save_embedding_set
from .optimizer import TrainConfig
from .vocab import align

DATA_DIR_ENV = "METAEMBED_DATA_DIR"

_TRAIN_FIELDS = tuple(f.name for f in dataclasses.fields(TrainConfig))
_CONFIG_KEYS = ("sets", "method", "dim", "strategy", *_TRAIN_FIELDS)
_FLAGS = {
    "dim": "--dim", "seed": "--seed", "epochs": "--epochs", "batch_size": "--batch-size",
    "learning_rate": "--lr", "l2_weight": "--l2", "adagrad_epsilon": "--adagrad-epsilon",
}
# Options that a command or method accepts but never reads: how the
# warning names it, then the field names.
_UNUSED = {
    "extend": ("extend, which fits projections in closed form",
               ("epochs", "batch_size", "learning_rate", "adagrad_epsilon")),
    ensemble.CONCAT: ("concat, which trains nothing and keeps every dimension",
                      ("dim", *_TRAIN_FIELDS)),
    ensemble.SVD: ("svd, which trains nothing", _TRAIN_FIELDS),
    ensemble.LATENT: ("latent, which trains nothing (a closed-form fit)", _TRAIN_FIELDS),
    "dim sweep": ("a dimension sweep, which takes each dimension from --values", ("dim",)),
}


@dataclass
class SetSpec:
    name: str
    path: str
    weight: float = 1.0
    column_normalize: bool = False


def parse_set_spec(text: str) -> SetSpec:
    if "=" not in text:
        raise ValueError(
            f"bad set spec {text!r}: expected name=path[:weight[:colnorm]]"
        )
    name, rest = text.split("=", 1)
    parts = rest.split(":")
    if not name or not parts[0]:
        raise ValueError(f"bad set spec {text!r}: empty name or path")
    spec = SetSpec(name=name, path=parts[0])
    if len(parts) > 1 and parts[1]:
        try:
            spec.weight = float(parts[1])
        except ValueError:
            raise ValueError(f"bad set spec {text!r}: weight must be a number") from None
    if len(parts) > 2:
        if parts[2] != "colnorm":
            raise ValueError(f"bad set spec {text!r}: trailing field must be 'colnorm'")
        spec.column_normalize = True
    if len(parts) > 3:
        raise ValueError(f"bad set spec {text!r}: too many fields")
    return spec


def resolve_dataset(path: str) -> Path:
    """Find a dataset file directly or under the data root env var."""
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root:
        candidate = Path(root) / path
        if candidate.exists():
            return candidate
    raise ValueError(f"dataset file not found: {path}")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = [key for key in config if key not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(
            f"{path}: unknown config key(s) {', '.join(unknown)}; "
            f"expected some of {', '.join(_CONFIG_KEYS)}"
        )
    return config


def _warn_unused(args, file_config: dict, key: str) -> None:
    """Print one stderr warning naming each option ``key`` never reads
    that was set by flag or config file."""
    what, fields = _UNUSED.get(key, ("", ()))
    flags = [
        _FLAGS[field] for field in fields
        if getattr(args, field, None) is not None or field in file_config
    ]
    if flags:
        print(f"warning: no effect on {what}: {', '.join(flags)}", file=sys.stderr)


def make_train_config(
    args, file_config: dict, base: TrainConfig | None = None
) -> TrainConfig:
    """TrainConfig from ``base`` defaults, then config file, then flags."""
    values = dataclasses.asdict(base) if base is not None else {}
    for field in _TRAIN_FIELDS:
        if field in file_config:
            values[field] = file_config[field]
        flag = getattr(args, field, None)
        if flag is not None:
            values[field] = flag
    return TrainConfig(**values)


def _gather_set_specs(args, file_config: dict, minimum: int = 1) -> list[SetSpec]:
    raw = args.sets if args.sets else file_config.get("sets", [])
    if not raw:
        raise ValueError("no embedding sets given (use --sets or a config file)")
    specs = [parse_set_spec(s) for s in raw]
    if len(specs) < minimum:
        raise ValueError(f"{args.command} needs at least {minimum} sets, got {len(specs)}")
    return specs


def _method_dim_config(args, file_config: dict) -> tuple[str, int, TrainConfig]:
    """The method, output dimension and training settings of build or sweep."""
    method = args.method or file_config.get("method")
    if method not in ensemble.METHODS:
        raise ValueError(f"--method must be one of {ensemble.METHODS}, got {method!r}")
    _warn_unused(args, file_config, method)
    dim = args.dim if args.dim is not None else file_config.get("dim", ensemble.DEFAULT_DIM)
    base = TrainConfig.union_defaults() if method == ensemble.LATENT_UNION else None
    return method, dim, make_train_config(args, file_config, base)


def _load_sets(specs: list[SetSpec]) -> list[EmbeddingSet]:
    return [load_embedding_set(spec.path, name=spec.name) for spec in specs]


def _write_csv(rows: list[list], header: list[str], out: str | None) -> None:
    with open(out, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _build_meta(specs, sets, alignment, method, dim, config):
    """The meta-embeddings, the extended sets (or None) and the report (or None)."""
    weights = {s.name: s.weight for s in specs}
    if method == ensemble.LATENT:
        meta, _, report = ensemble.train_latent(sets, alignment, weights, dim, config)
        return meta, None, report
    if method == ensemble.LATENT_UNION:
        meta, extended, _, report = ensemble.train_latent_union(
            sets, alignment, weights, dim, config
        )
        return meta, extended, report
    colnorm = [s.name for s in specs if s.column_normalize]
    conc = ensemble.concatenate(sets, weights, alignment, colnorm)
    return (conc if method == ensemble.CONCAT else ensemble.svd_reduce(conc, dim)), None, None


def cmd_info(args) -> int:
    file_config = _load_config_file(args.config)
    specs = _gather_set_specs(args, file_config)
    sets = _load_sets(specs)
    for s in sets:
        print(f"{s.name}: {len(s)} words, {s.dim} dimensions")
    if len(sets) >= 2:
        alignment = align(sets)
        print(f"intersection: {len(alignment.intersection)} words")
        print(f"union: {len(alignment.union)} words")
    return 0


def cmd_build(args) -> int:
    file_config = _load_config_file(args.config)
    specs = _gather_set_specs(args, file_config, minimum=2)
    method, dim, config = _method_dim_config(args, file_config)

    sets = _load_sets(specs)
    alignment = align(sets)
    meta, extended, report = _build_meta(specs, sets, alignment, method, dim, config)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    vector_path = out_dir / f"{method}.txt"
    save_embedding_set(meta, vector_path)
    if extended is not None:
        for ext in extended:
            save_embedding_set(ext, out_dir / f"{ext.name}.extended.txt")

    metadata = {
        "method": method,
        "dim": meta.dim,
        "words": len(meta),
        "sets": [
            {
                "name": s.name, "path": s.path, "weight": s.weight,
                "column_normalize": s.column_normalize,
            }
            for s in specs
        ],
        "seed": config.seed,
    }
    if report is not None:
        metadata["final_loss"] = report.final_loss
    if method == ensemble.LATENT_UNION:
        metadata.update(epochs_run=len(report.epoch_losses), batch_size=config.batch_size,
                        learning_rate=config.learning_rate, l2_weight=config.l2_weight)
    with open(out_dir / f"{method}.json", "w", encoding="utf-8") as f:
        json.dump(metadata, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {vector_path} ({len(meta)} words, {meta.dim} dimensions)")
    return 0


def cmd_extend(args) -> int:
    file_config = _load_config_file(args.config)
    specs = _gather_set_specs(args, file_config, minimum=2)
    strategy = args.strategy or file_config.get("strategy", oov.PROJECTED)
    config = make_train_config(args, file_config, TrainConfig.projection_defaults())
    _warn_unused(args, file_config, "extend")

    sets = _load_sets(specs)
    extended = oov.extend_all(sets, config, strategy)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ext in extended:
        path = out_dir / f"{ext.name}.extended.txt"
        save_embedding_set(ext, path)
        print(f"wrote {path} ({len(ext)} words)")
    with open(out_dir / "extend.json", "w", encoding="utf-8") as f:
        json.dump({"strategy": strategy, "seed": config.seed}, f, indent=2)
        f.write("\n")
    return 0


def _write_scores(scored: list[tuple[str, str, EvalResult]], out: str | None) -> int:
    """Write (embedding, dataset, result) triples as the eval CSV; returns exit code 0."""
    rows = [[e, d, format(r.score, ".4f"), r.oov_count, r.evaluated_count] for e, d, r in scored]
    _write_csv(rows, ["embedding", "dataset", "score", "oov_count", "evaluated"], out)
    return 0


def cmd_eval_sim(args) -> int:
    scored = []
    for emb_path in args.emb:
        emb = load_embedding_set(emb_path)
        for ds_path in args.datasets:
            ds = load_similarity_dataset(resolve_dataset(ds_path))
            scored.append((emb.name, ds.name, eval_similarity(emb, ds)))
    return _write_scores(scored, args.out)


def cmd_eval_analogy(args) -> int:
    ds = load_analogy_dataset(resolve_dataset(args.dataset))
    ds_name = Path(args.dataset).stem
    scored = []
    for emb_path in args.emb:
        emb = load_embedding_set(emb_path)
        # semantic, syntactic, then total
        scored += [(emb.name, f"{ds_name}:{c}", r) for c, r in eval_analogy(emb, ds).items()]
    return _write_scores(scored, args.out)


def cmd_sweep(args) -> int:
    file_config = _load_config_file(args.config)
    specs = _gather_set_specs(args, file_config, minimum=2)
    method, base_dim, config = _method_dim_config(args, file_config)
    if args.param == "dim":
        _warn_unused(args, file_config, "dim sweep")
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError:
        raise ValueError(f"bad --values {args.values!r}: expected comma-separated numbers") from None
    if not values:
        raise ValueError("empty --values grid")

    sets = _load_sets(specs)
    alignment = align(sets)
    dev = load_similarity_dataset(resolve_dataset(args.dev))

    if args.param == "dim":
        if method == ensemble.CONCAT:
            raise ValueError("dimension sweep does not apply to the concat method")
        k = sum(s.dim for s in sets)
        n = len(alignment.intersection)
        bad = [v for v in values if not v.is_integer() or not 1 <= v <= min(n, k)]
        if bad:
            raise ValueError(
                f"dim values must be integers in [1, {min(n, k)}], got {bad}"
            )

    rows = []
    for value in values:
        if args.param == "weight":
            swept = [
                SetSpec(s.name, s.path, value if s.weight != 1.0 else 1.0,
                        s.column_normalize)
                for s in specs
            ]
            meta, _, _ = _build_meta(swept, sets, alignment, method, base_dim, config)
        else:
            meta, _, _ = _build_meta(specs, sets, alignment, method, int(value), config)
        result = eval_similarity(meta, dev)
        rows.append([format(value, "g"), format(result.score, ".4f")])
    _write_csv(rows, ["value", "score"], args.out)
    return 0


def _add_set_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--sets", nargs="+", metavar="NAME=PATH[:WEIGHT[:colnorm]]",
        help="embedding sets to load",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")


def _add_train_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--l2", dest="l2_weight", type=float, default=None)
    p.add_argument(
        "--adagrad-epsilon", dest="adagrad_epsilon", type=float, default=None
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaembed",
        description="Combine word embedding sets into meta-embeddings and evaluate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="show vocabulary statistics for a list of sets")
    _add_set_options(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("build", help="build meta-embeddings and write them out")
    _add_set_options(p)
    p.add_argument("--method", choices=ensemble.METHODS)
    p.add_argument("--dim", type=int, default=None, help="output dimensionality (default 200)")
    p.add_argument("--out", required=True, help="output directory")
    _add_train_options(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("extend", help="extend every set to the vocabulary union")
    _add_set_options(p)
    p.add_argument("--strategy", choices=oov.STRATEGIES)
    p.add_argument("--out", required=True, help="output directory")
    _add_train_options(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("eval-sim", help="evaluate embeddings on similarity datasets")
    p.add_argument("--emb", nargs="+", required=True, help="embedding vector files")
    p.add_argument("--datasets", nargs="+", required=True, help="similarity dataset files")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_eval_sim)

    p = sub.add_parser("eval-analogy", help="evaluate embeddings on an analogy dataset")
    p.add_argument("--emb", nargs="+", required=True, help="embedding vector files")
    p.add_argument("--dataset", required=True, help="analogy dataset file")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_eval_analogy)

    p = sub.add_parser("sweep", help="rebuild over a parameter grid and score on a dev set")
    _add_set_options(p)
    p.add_argument("--param", choices=("weight", "dim"), required=True)
    p.add_argument("--values", required=True, help="comma-separated grid values")
    p.add_argument("--dev", required=True, help="dev similarity dataset file")
    p.add_argument("--method", choices=ensemble.METHODS)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    _add_train_options(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
