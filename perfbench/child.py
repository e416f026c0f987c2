"""Run one metaembed CLI command in a fresh process, optionally traced.

Usage::

    python3 perfbench/child.py SPAWN_TIME RESULT_JSON TRACE RUN_ID -- ARGV...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it
started this process (the clock is system-wide on Linux).  The package
is imported from ``src/`` under the current directory and nowhere else.
``metaembed.cli.main(ARGV)`` then runs, and RESULT_JSON receives the
exit code, the times at which the import and the last input load
ended, and with TRACE=1 the spans.

Tracing wraps each public function at the name its caller looks it up
under, for example ``cli.load_embedding_set`` or
``ensemble.adagrad_update``; no source file changes.  A span records
its name, start, end, the index of the enclosing span, and counts
derived from the call's arguments and result.  Counts computed from
array shapes or file sizes rather than measured carry the formula in
their key.  Without tracing only the input loader is wrapped, to stamp
the end of set-up.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _load_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "words": len(result.words)}


def _save_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _align_counts(args, kwargs, result):
    return {"shared": len(result.intersection), "union": len(result.union)}


def _svd_counts(args, kwargs, result):
    # Thin SVD of an r x c matrix (r >= c) with U: 6 r c^2 + 20 c^3 flops.
    r, c = max(args[0].shape), min(args[0].shape)
    return {"gflop[6rc^2+20c^3]": (6 * r * c * c + 20 * c**3) / 1e9}


def _loss_grads_counts(args, kwargs, result):
    # Per set: residual, grad_meta and grad_map GEMMs, 2*b*dim*d_i flops each.
    b, dim = args[0].shape
    sum_d = sum(m.shape[0] for m in args[1])
    return {"gflop[6*b*dim*sum_d]": 6 * b * dim * sum_d / 1e9}


def _projection_counts(args, kwargs, result):
    # Residual and gradient GEMMs: 2*b*d_src*d_tgt flops each.
    b, d_src = args[1].shape
    return {"gflop[4*b*d_src*d_tgt]": 4 * b * d_src * args[2].shape[1] / 1e9}


def _adagrad_counts(args, kwargs, result):
    # Reads params, grads and accum; writes params and accum: 5 float64 arrays.
    return {"mb[5*8*size]": 5 * 8 * args[0].size / 1e6}


def _train_counts(args, kwargs, result):
    report = result[-1]
    return {"epochs": len(report.epoch_losses), "steps": report.steps}


def _fill_counts(args, kwargs, result):
    return {"filled": len(result.words) - len(args[0].words)}


def _similarity_counts(args, kwargs, result):
    return {"oov": result.oov_count}


def _analogy_counts(args, kwargs, result):
    return {"questions": len(args[1].questions), "oov": result["total"].oov_count}


# (module whose global the caller reads, attribute, span name, counts)
WRAPS = (
    ("cli", "load_embedding_set", "io.load_embedding_set", _load_counts),
    ("cli", "save_embedding_set", "io.save_embedding_set", _save_counts),
    ("cli", "align", "vocab.align", _align_counts),
    ("oov", "align", "vocab.align", _align_counts),
    ("ensemble", "normalize_rows", "linalg.normalize_rows", None),
    ("ensemble", "normalize_columns", "linalg.normalize_columns", None),
    ("ensemble", "truncated_svd", "linalg.truncated_svd", _svd_counts),
    ("evaluate", "normalize_rows", "linalg.normalize_rows", None),
    ("ensemble", "concatenate", "ensemble.concatenate", None),
    ("ensemble", "svd_reduce", "ensemble.svd_reduce", None),
    ("ensemble", "train_latent", "ensemble.train", _train_counts),
    ("ensemble", "train_latent_union", "ensemble.train", _train_counts),
    ("ensemble", "prediction_loss_grads", "ensemble.prediction_loss_grads", _loss_grads_counts),
    ("ensemble", "adagrad_update", "optimizer.adagrad_update", _adagrad_counts),
    ("ensemble", "minibatches", "optimizer.minibatches", None),
    ("ensemble", "loss_plateaued", "optimizer.loss_plateaued", None),
    ("ensemble", "seeded_rng", "optimizer.seeded_rng", None),
    ("oov", "adagrad_update", "optimizer.adagrad_update", _adagrad_counts),
    ("oov", "minibatches", "optimizer.minibatches", None),
    ("oov", "loss_plateaued", "optimizer.loss_plateaued", None),
    ("oov", "seeded_rng", "optimizer.seeded_rng", None),
    ("oov", "extend_all", "oov.extend_all", None),
    ("oov", "train_projection", "oov.train_projection", None),
    ("oov", "projection_loss_grad", "oov.projection_loss_grad", _projection_counts),
    ("oov", "fill_oov", "oov.fill_oov", _fill_counts),
    ("cli", "load_similarity_dataset", "evaluate.load_similarity_dataset", None),
    ("cli", "load_analogy_dataset", "evaluate.load_analogy_dataset", None),
    ("cli", "eval_similarity", "evaluate.eval_similarity", _similarity_counts),
    ("cli", "eval_analogy", "evaluate.eval_analogy", _analogy_counts),
    ("evaluate", "spearman", "evaluate.spearman", None),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self.stack: list[int] = []
        self.last_load_end = None

    def wrap(self, fn, name, counts):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced

    def stamp_loads(self, fn):
        def stamped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.last_load_end = time.perf_counter()
            return result

        return stamped


def install(modules: dict, tracer: Tracer, traced: bool) -> None:
    """Replace each looked-up name with a wrapper that records into ``tracer``."""
    if not traced:
        cli = modules["cli"]
        cli.load_embedding_set = tracer.stamp_loads(cli.load_embedding_set)
        return
    for module, attr, name, counts in WRAPS:
        fn = getattr(modules[module], attr)
        if name == "io.load_embedding_set":
            fn = tracer.stamp_loads(fn)
        setattr(modules[module], attr, tracer.wrap(fn, name, counts))


def main(argv: list[str]) -> int:
    spawn, result_path, trace_flag, run_id, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: child.py SPAWN_TIME RESULT_JSON TRACE RUN_ID -- ARGV...")
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import metaembed
    from metaembed import cli, ensemble, evaluate, oov

    imported = time.perf_counter()
    if not Path(metaembed.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"metaembed imported from {metaembed.__file__}, not {src}")

    tracer = Tracer()
    modules = {"cli": cli, "ensemble": ensemble, "evaluate": evaluate, "oov": oov}
    install(modules, tracer, trace_flag == "1")
    code = cli.main(command)
    record = {
        "run_id": run_id,
        "code": code,
        "spawn": float(spawn),
        "imported": imported,
        "setup_end": tracer.last_load_end,
        "spans": tracer.spans if trace_flag == "1" else None,
    }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
