"""Per-layer metrics from the spans of one traced operation.

Each command of the operation contributes a root span, ``cli``, from
the parent's spawn time to the moment it saw the child exit, and a
``startup`` span from spawn to the end of ``import metaembed``.  Spans
the child recorded without an enclosing span hang under the root.  A
span's self time is its duration minus the durations of its children
(calls nest, so children never overlap); a layer's self time is the sum
over its spans.  The self times of all layers, ``startup`` and ``cli``
add up to the traced run time.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("io", "vocab", "linalg", "ensemble", "optimizer", "oov", "evaluate")

# Counts computed from shapes or file sizes rather than measured.
COMPUTED = {
    "io.bytes_read": "sum of input file sizes passed to load_embedding_set",
    "io.bytes_written": "sum of file sizes written by save_embedding_set",
    "linalg.svd_gflop": "thin SVD of r x c (r >= c): (6*r*c^2 + 20*c^3) / 1e9",
    "ensemble.loss_grads_gflop": "per call 6*b*dim*sum(d_i) / 1e9",
    "optimizer.adagrad_mb": "per call 5 arrays * 8 bytes * params.size / 1e6",
    "oov.projection_gflop": "per call 4*b*d_src*d_tgt / 1e9",
}


def flatten(commands: list[dict]) -> list[dict]:
    """One span list for the operation: name, start, end, parent, run id, counts."""
    spans = []
    for cmd in commands:
        root = len(spans)
        run = cmd["run_id"]
        spans.append(dict(name="cli", start=cmd["spawn"], end=cmd["exit"], parent=None, run=run, counts=None))
        spans.append(dict(name="startup", start=cmd["spawn"], end=cmd["imported"], parent=root, run=run, counts=None))
        offset = len(spans)
        for name, start, end, parent, counts in cmd["spans"]:
            spans.append(dict(
                name=name, start=start, end=end, run=run, counts=counts,
                parent=root if parent is None else parent + offset,
            ))
    return spans


def _safe_div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(commands: list[dict]) -> dict[str, float]:
    spans = flatten(commands)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    total = defaultdict(float)      # inclusive time per span name
    self_time = defaultdict(float)  # exclusive time per span name
    calls = defaultdict(int)
    count = defaultdict(float)      # summed counts per (span name, key)
    last = {}                       # last counts per span name
    for i, s in enumerate(spans):
        name = s["name"]
        duration = s["end"] - s["start"]
        layer = name.split(".")[0]
        layer_self[layer] += duration - child_time[i]
        layer_calls[layer] += 1
        total[name] += duration
        self_time[name] += duration - child_time[i]
        calls[name] += 1
        if s["counts"]:
            last[name] = s["counts"]
            for key, value in s["counts"].items():
                count[name, key.split("[")[0]] += value

    projection_epochs = sum(
        1 for s in spans
        if s["name"] == "optimizer.minibatches" and s["parent"] is not None
        and spans[s["parent"]]["name"] == "oov.train_projection"
    )
    m = {
        "trace.run_s": total["cli"],
        "startup.self_s": layer_self["startup"],
        "cli.self_s": layer_self["cli"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.calls"] = layer_calls[layer]
    m.update({
        "io.load_s": total["io.load_embedding_set"],
        "io.bytes_read": count["io.load_embedding_set", "bytes"],
        "io.load_mb_per_s": _safe_div(count["io.load_embedding_set", "bytes"] / 1e6, total["io.load_embedding_set"]),
        "io.save_s": total["io.save_embedding_set"],
        "io.bytes_written": count["io.save_embedding_set", "bytes"],
        "io.save_mb_per_s": _safe_div(count["io.save_embedding_set", "bytes"] / 1e6, total["io.save_embedding_set"]),
        "vocab.align_s": total["vocab.align"],
        "vocab.shared_words": last.get("vocab.align", {}).get("shared", 0),
        "vocab.union_words": last.get("vocab.align", {}).get("union", 0),
        "linalg.truncated_svd_s": total["linalg.truncated_svd"],
        "linalg.svd_gflop": count["linalg.truncated_svd", "gflop"],
        "linalg.svd_gflop_per_s": _safe_div(count["linalg.truncated_svd", "gflop"], total["linalg.truncated_svd"]),
        "ensemble.concatenate_s": total["ensemble.concatenate"],
        "ensemble.svd_reduce_s": total["ensemble.svd_reduce"],
        "ensemble.train_s": total["ensemble.train"],
        "ensemble.epochs": count["ensemble.train", "epochs"],
        "ensemble.steps": count["ensemble.train", "steps"],
        "ensemble.epoch_s": _safe_div(total["ensemble.train"], count["ensemble.train", "epochs"]),
        "ensemble.loss_grads_s": total["ensemble.prediction_loss_grads"],
        "ensemble.loss_grads_calls": calls["ensemble.prediction_loss_grads"],
        "ensemble.loss_grads_gflop": count["ensemble.prediction_loss_grads", "gflop"],
        "ensemble.train_self_s": self_time["ensemble.train"],
        "optimizer.adagrad_s": total["optimizer.adagrad_update"],
        "optimizer.adagrad_calls": calls["optimizer.adagrad_update"],
        "optimizer.adagrad_mb": count["optimizer.adagrad_update", "mb"],
        "optimizer.minibatches_s": total["optimizer.minibatches"],
        "oov.train_projection_s": total["oov.train_projection"],
        "oov.projections": calls["oov.train_projection"],
        "oov.projection_epochs": projection_epochs,
        "oov.projection_loss_grad_s": total["oov.projection_loss_grad"],
        "oov.projection_gflop": count["oov.projection_loss_grad", "gflop"],
        "oov.fill_oov_s": total["oov.fill_oov"],
        "oov.filled_words": count["oov.fill_oov", "filled"],
        "evaluate.load_datasets_s": total["evaluate.load_similarity_dataset"] + total["evaluate.load_analogy_dataset"],
        "evaluate.similarity_s": total["evaluate.eval_similarity"],
        "evaluate.analogy_s": total["evaluate.eval_analogy"],
        "evaluate.analogy_questions_per_s": _safe_div(count["evaluate.eval_analogy", "questions"], total["evaluate.eval_analogy"]),
        "evaluate.oov_skipped": count["evaluate.eval_similarity", "oov"] + count["evaluate.eval_analogy", "oov"],
    })
    return m
