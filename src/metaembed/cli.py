"""Command-line pipeline: build, extend, and evaluate meta-embeddings.

Set arguments take the form ``name=path[:weight[:colnorm]]``; weight
defaults to 1 and the literal ``colnorm`` suffix enables per-dimension
normalization for that set.  A JSON config file (``--config``) holds
flags: each key (``sets``, ``method``, ``dim``, ``strategy`` or a
TrainConfig field) is read as its flag typed before the command line's
own, so argparse checks its value and a typed flag wins.  Any other key
is an error.  An option, or set weight or colnorm, that the command's
method or strategy does not read (see ``_READS``) draws a warning on
stderr.  Dataset paths are resolved against the ``METAEMBED_DATA_DIR``
environment variable when not found directly.
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
# The flag of each option; the keys are also the config-file keys.
_FLAGS = {
    "sets": "--sets", "method": "--method", "dim": "--dim", "strategy": "--strategy",
    "batch_size": "--batch-size", "learning_rate": "--lr", "l2_weight": "--l2",
    "epochs": "--epochs", "seed": "--seed", "adagrad_epsilon": "--adagrad-epsilon",
}
# The options each method, extend strategy and info reads; ``weight`` and
# ``colnorm`` are the set fields.  Any other option given is warned about.
_READS = {
    ensemble.CONCAT: ("weight", "colnorm"),
    ensemble.SVD: ("dim", "weight", "colnorm"),
    ensemble.LATENT: ("dim", "weight"),
    ensemble.LATENT_UNION: ("dim", "weight", *_TRAIN_FIELDS),
    oov.RANDOM: ("seed",),
    oov.AVERAGE: (),
    oov.PROJECTED: ("l2_weight",),
    "info": (),
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


def _config_flags(path: str) -> list[str]:
    """The JSON config file at ``path`` as command-line tokens."""
    with open(path, encoding="utf-8") as f:
        try:
            config = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = [key for key in config if key not in _FLAGS]
    if unknown:
        raise ValueError(
            f"{path}: unknown config key(s) {', '.join(unknown)}; "
            f"expected some of {', '.join(_FLAGS)}"
        )
    tokens = []
    for key, value in config.items():
        if key == "sets":
            tokens += ["--sets", *map(str, value if isinstance(value, list) else [value])]
        else:
            tokens.append(f"{_FLAGS[key]}={value}")
    return tokens


def _warn(what: str, flags: list[str]) -> None:
    if flags:
        print(f"warning: no effect on {what}: {', '.join(flags)}", file=sys.stderr)


def _gather_set_specs(args, minimum: int = 1) -> list[SetSpec]:
    if not args.sets:
        raise ValueError("no embedding sets given (use --sets or a config file)")
    specs = [parse_set_spec(s) for s in args.sets]
    if len(specs) < minimum:
        raise ValueError(f"{args.command} needs at least {minimum} sets, got {len(specs)}")
    return specs


def _read_options(args, specs: list[SetSpec], flag: str | None = None, skip=()) -> dict:
    """The options given, typed or from ``--config``, that ``_READS`` lists for
    the value of ``--<flag>`` (or for the command), less ``skip``, by field
    name.  One stderr warning names every other option given."""
    key = getattr(args, flag) if flag else args.command
    if key is None:
        raise ValueError(f"no {flag} given (use --{flag} or a config file)")
    reads = [field for field in _READS[key] if field not in skip]
    given = [field for field in ("dim", *_TRAIN_FIELDS) if getattr(args, field, None) is not None]
    unread = [_FLAGS[field] for field in given if field not in reads]
    for s in specs:
        if s.weight != 1.0 and "weight" not in reads:
            unread.append(f"the weight of set {s.name!r}")
        if s.column_normalize and "colnorm" not in reads:
            unread.append(f"the colnorm of set {s.name!r}")
    _warn(f"{args.command} --{flag} {key}" if flag else key, unread)
    return {field: getattr(args, field) for field in given if field in reads}


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
    specs = _gather_set_specs(args)
    _read_options(args, specs)
    sets = _load_sets(specs)
    for s in sets:
        print(f"{s.name}: {len(s)} words, {s.dim} dimensions")
    if len(sets) >= 2:
        alignment = align(sets)
        print(f"intersection: {len(alignment.intersection)} words")
        print(f"union: {len(alignment.union)} words")
    return 0


def cmd_build(args) -> int:
    specs = _gather_set_specs(args, minimum=2)
    read = _read_options(args, specs, "method")
    dim = read.pop("dim", ensemble.DEFAULT_DIM)
    config = TrainConfig.union_defaults(**read) if args.method == ensemble.LATENT_UNION else None

    sets = _load_sets(specs)
    alignment = align(sets)
    meta, extended, report = _build_meta(specs, sets, alignment, args.method, dim, config)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    vector_path = out_dir / f"{args.method}.txt"
    save_embedding_set(meta, vector_path)
    if extended is not None:
        for ext in extended:
            save_embedding_set(ext, out_dir / f"{ext.name}.extended.txt")

    metadata = {
        "method": args.method,
        "dim": meta.dim,
        "words": len(meta),
        "sets": [dataclasses.asdict(s) for s in specs],
    }
    if report is not None:
        metadata["final_loss"] = report.final_loss
    if config is not None:
        metadata.update(dataclasses.asdict(config), epochs_run=len(report.epoch_losses))
    with open(out_dir / f"{args.method}.json", "w", encoding="utf-8") as f:
        json.dump(metadata, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {vector_path} ({len(meta)} words, {meta.dim} dimensions)")
    return 0


def cmd_extend(args) -> int:
    specs = _gather_set_specs(args, minimum=2)
    config = TrainConfig.projection_defaults(**_read_options(args, specs, "strategy"))

    sets = _load_sets(specs)
    extended = oov.extend_all(sets, config, args.strategy)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ext in extended:
        path = out_dir / f"{ext.name}.extended.txt"
        save_embedding_set(ext, path)
        print(f"wrote {path} ({len(ext)} words)")
    with open(out_dir / "extend.json", "w", encoding="utf-8") as f:
        json.dump({"strategy": args.strategy, "seed": args.seed or 0}, f, indent=2)
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
    specs = _gather_set_specs(args, minimum=2)
    # a dimension sweep takes each dimension from --values
    read = _read_options(args, specs, "method", ("dim",) if args.param == "dim" else ())
    base_dim = read.pop("dim", ensemble.DEFAULT_DIM)
    config = TrainConfig.union_defaults(**read) if args.method == ensemble.LATENT_UNION else None
    if args.param == "weight" and all(s.weight == 1.0 for s in specs):
        raise ValueError(
            "a weight sweep changes only sets whose weight is not 1: "
            "give at least one set a non-unit weight in --sets"
        )
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
        if args.method == ensemble.CONCAT:
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
            swept = [dataclasses.replace(s, weight=value) if s.weight != 1.0 else s for s in specs]
            meta, _, _ = _build_meta(swept, sets, alignment, args.method, base_dim, config)
        else:
            meta, _, _ = _build_meta(specs, sets, alignment, args.method, int(value), config)
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
    for field in dataclasses.fields(TrainConfig):
        readers = [key for key, reads in _READS.items() if field.name in reads]
        p.add_argument(_FLAGS[field.name], dest=field.name, type=type(field.default),
                       help=f"read by {', '.join(readers)}")


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
    p.add_argument("--strategy", choices=oov.STRATEGIES, default=oov.PROJECTED)
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
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # the file's flags come first, so the typed ones win; the typed ones
            # already parsed alone, so an argparse error here comes from the file
            try:
                args, leftover = parser.parse_known_args(
                    [args.command, *_config_flags(args.config), *argv[1:]]
                )
            except SystemExit:
                print(f"error: that value comes from --config {args.config}", file=sys.stderr)
                raise
            _warn(args.command, [token.split("=", 1)[0] for token in leftover])
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
