"""Benchmark the metaembed CLI on seeded synthetic embedding sets.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build-svd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --tiny --seconds 1 --trace 1
    python3 perfbench/run.py --write-spec        # rewrite BENCHMARK.json

Each run draws five embedding sets (dimensions 50, 100, 200, 300, 300)
from a latent space fixed by ``--seed``, then runs the workload's CLI
commands in a closed loop with one client: each command is
``metaembed.cli.main(argv)`` in a fresh child process, one at a time,
with BLAS threads capped at the number of usable cores.  The first
operation is a warm-up whose outputs become the reference; it is not
timed.  Operations then repeat until ``--seconds`` have passed (at
least three are timed).  Every operation's outputs are checked, and
must be byte-identical to the reference.

With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` untraced and traced operations alternate
and it carries the per-layer metrics of the median traced operation
(see ``layers.py``).  A fuller record, with the environment, input
sizes, every sample and the spans, is written under
``.perfbench/records/``.  ``--tiny`` shrinks every input so that all
workloads, checks and metrics run in seconds (``selftest.py`` uses it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gen
import layers

CHILD = Path(__file__).resolve().with_name("child.py")
WORK_DIR = Path(".perfbench")
NPROC = len(os.sched_getaffinity(0))
MIN_TIMED_OPS = 3
COMMAND_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: gen.Shape
    epochs: int = 0  # 0 when no trainer runs


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


WORKLOADS = (
    Workload(
        "build-svd",
        "read-heavy: 29 MB of text over five 90%-overlapping sets, SVD to 200 dims, "
        "then eval-sim and eval-analogy; io load, linalg and evaluate dominate, no trainer runs",
        gen.Shape(pool=3500, coverage=0.9, eval_in_all_sets=True),
    ),
    Workload(
        "latent-union",
        "1TON+ training over a 2000-word union at 80% coverage per set; the AdaGrad trainer "
        "dominates and writing five extended sets exercises io save",
        gen.Shape(pool=2000, coverage=0.8, eval_in_all_sets=False),
        epochs=20,
    ),
    Workload(
        "extend-projected",
        "fills 70%-coverage sets with 20 pairwise AdaGrad projections and the per-word "
        "fill_oov loop, then writes large outputs; ensemble and linalg never run",
        gen.Shape(pool=2000, coverage=0.7, eval_in_all_sets=False),
        epochs=15,
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}
DIM = 200

TINY_SHAPE = dict(
    set_dims=(5, 10, 20, 30, 30), latent_dim=15, clusters=12, pool=420,
    similarity_sizes=(("ws353", 30), ("simlex999", 60)),
    analogy_sizes=(("semantic", 50, 5), ("syntactic", 60, 9)), pairs_per_category=4,
)
TINY_DIM = 20
TINY_EPOCHS = 3

END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("sim_rho", "rho_x100", "higher", 0.15),
    Metric("analogy_acc", "%", "higher", 0.25),
    Metric("fill_err", "ratio", "lower", 0.1),
)

_PER_LAYER = [
    ("startup.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("final_loss", "loss", "lower"),
]
for _layer in layers.LAYERS:
    _PER_LAYER += [(f"{_layer}.self_s", "s", "lower"), (f"{_layer}.calls", "count", "lower")]
_PER_LAYER += [
    ("io.load_s", "s", "lower"),
    ("io.bytes_read", "byte", "lower"),
    ("io.load_mb_per_s", "MB/s", "higher"),
    ("io.save_s", "s", "lower"),
    ("io.bytes_written", "byte", "lower"),
    ("io.save_mb_per_s", "MB/s", "higher"),
    ("vocab.align_s", "s", "lower"),
    ("vocab.shared_words", "count", "higher"),
    ("vocab.union_words", "count", "higher"),
    ("linalg.truncated_svd_s", "s", "lower"),
    ("linalg.svd_gflop", "GFLOP", "lower"),
    ("linalg.svd_gflop_per_s", "GFLOP/s", "higher"),
    ("ensemble.concatenate_s", "s", "lower"),
    ("ensemble.svd_reduce_s", "s", "lower"),
    ("ensemble.train_s", "s", "lower"),
    ("ensemble.epochs", "count", "lower"),
    ("ensemble.steps", "count", "lower"),
    ("ensemble.epoch_s", "s", "lower"),
    ("ensemble.loss_grads_s", "s", "lower"),
    ("ensemble.loss_grads_calls", "count", "lower"),
    ("ensemble.loss_grads_gflop", "GFLOP", "lower"),
    ("ensemble.train_self_s", "s", "lower"),
    ("optimizer.adagrad_s", "s", "lower"),
    ("optimizer.adagrad_calls", "count", "lower"),
    ("optimizer.adagrad_mb", "MB", "lower"),
    ("optimizer.minibatches_s", "s", "lower"),
    ("oov.train_projection_s", "s", "lower"),
    ("oov.projections", "count", "lower"),
    ("oov.projection_epochs", "count", "lower"),
    ("oov.projection_loss_grad_s", "s", "lower"),
    ("oov.projection_gflop", "GFLOP", "lower"),
    ("oov.fill_oov_s", "s", "lower"),
    ("oov.filled_words", "count", "higher"),
    ("evaluate.load_datasets_s", "s", "lower"),
    ("evaluate.similarity_s", "s", "lower"),
    ("evaluate.analogy_s", "s", "lower"),
    ("evaluate.analogy_questions_per_s", "1/s", "higher"),
    ("evaluate.oov_skipped", "count", "lower"),
]
PER_LAYER = tuple(Metric(*m) for m in _PER_LAYER)


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


# ---------------------------------------------------------------- commands


def commands(w: Workload, inputs: gen.Inputs, out: Path, dim: int, epochs: int, seed: int):
    sets = [f"{n}={p}" for n, p in zip(inputs.set_names, inputs.set_paths)]
    if w.name == "build-svd":
        emb = str(out / "svd.txt")
        return [
            ["build", "--sets", *sets, "--method", "svd", "--dim", str(dim), "--out", str(out)],
            ["eval-sim", "--emb", emb, "--datasets", *map(str, inputs.similarity_paths),
             "--out", str(out / "sim.csv")],
            ["eval-analogy", "--emb", emb, "--dataset", str(inputs.analogy_path),
             "--out", str(out / "analogy.csv")],
        ]
    train = ["--epochs", str(epochs), "--seed", str(seed), "--out", str(out)]
    if w.name == "latent-union":
        return [["build", "--sets", *sets, "--method", "latent_union", "--dim", str(dim), *train]]
    return [["extend", "--sets", *sets, "--strategy", "projected", *train]]


def check_outputs(w: Workload, inputs: gen.Inputs, out: Path, dim: int):
    """Problems with one operation's outputs, and the parsed matrices."""
    union = inputs.union_words
    matrices = {}
    problems = []

    def vectors(name, words, d, known=None):
        found, matrix = checks.check_vectors(out / name, words, d, known)
        problems.extend(found)
        matrices[name] = matrix

    def extended():
        for i, (name, d) in enumerate(zip(inputs.set_names, inputs.set_dims)):
            known = (inputs.membership[i], inputs.true_vectors[i])
            vectors(f"{name}.extended.txt", union, d, known)

    if w.name == "build-svd":
        vectors("svd.txt", inputs.shared_words, dim)
        problems += checks.check_sidecar(out / "svd.json", ("method", "dim", "words"))
        sim_rows = [(p.stem, n) for p, n in zip(inputs.similarity_paths, inputs.similarity_sizes)]
        found, matrices["sim.csv"] = checks.check_csv(out / "sim.csv", sim_rows)
        problems += found
        sizes = dict(inputs.analogy_sizes, total=sum(inputs.analogy_sizes.values()))
        analogy_rows = [(f"analogy:{k}", sizes[k]) for k in ("semantic", "syntactic", "total")]
        found, matrices["analogy.csv"] = checks.check_csv(out / "analogy.csv", analogy_rows)
        problems += found
    elif w.name == "latent-union":
        vectors("latent_union.txt", union, dim)
        extended()
        problems += checks.check_sidecar(out / "latent_union.json", ("final_loss", "epochs_run"))
    else:
        extended()
        problems += checks.check_sidecar(out / "extend.json", ("strategy", "seed"))
    return problems, matrices


def quality(w: Workload, inputs: gen.Inputs, out: Path, matrices: dict):
    """End-to-end quality of the reference outputs, plus cross-check problems."""
    problems = []
    if w.name == "build-svd":
        words = inputs.shared_words
        sim_emb = analogy_emb = matrices["svd.txt"]
        fill_err = 1.0  # nothing is filled: a hidden word has no vector, i.e. the zero vector
    else:
        words = inputs.union_words
        extended = [matrices[f"{n}.extended.txt"] for n in inputs.set_names]
        # Extended sets are scored as their row-normalized concatenation.
        sim_emb = analogy_emb = np.hstack(
            [m / np.linalg.norm(m, axis=1, keepdims=True) for m in extended]
        )
        fill_err = checks.fill_error(inputs, extended)
    final_loss = 0.0
    if w.name == "latent-union":
        # Similarity scores the meta-vectors; after this few epochs their
        # analogy accuracy is near chance, so analogies score the extended sets.
        sim_emb = matrices["latent_union.txt"]
        final_loss = json.loads((out / "latent_union.json").read_text(encoding="utf-8"))["final_loss"]
    sims = checks.similarity_scores(inputs, words, sim_emb)
    correct, evaluated = checks.analogy_counts(inputs, words, analogy_emb)
    analogy = 100.0 * correct / evaluated
    if w.name == "build-svd":
        # The program's own scores must agree with the independent ones.
        for row, own in zip(matrices["sim.csv"], sims):
            if abs(float(row[2]) - own) > 1e-4:
                problems.append(f"eval-sim {row[1]} scored {row[2]}, expected {own:.4f}")
        total = matrices["analogy.csv"][2]
        if int(total[4]) != evaluated or abs(float(total[2]) - analogy) > 1e-4:
            problems.append(f"eval-analogy total {total[2]} over {total[4]}, expected {analogy:.4f} over {evaluated}")
    return {
        "sim_rho": float(np.mean(sims)),
        "analogy_acc": analogy,
        "fill_err": fill_err,
        "final_loss": final_loss,
    }, problems


# ---------------------------------------------------------------- running


@dataclass
class Op:
    traced: bool
    run_s: float
    setup_s: float
    peak_rss_mb: float
    problems: list[str]
    commands: list[dict]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(NPROC)
    return env


def run_command(argv, out: Path, j: int, traced: bool, run_id: str, env: dict) -> dict:
    """One CLI command in a fresh child; wall time and peak RSS seen from outside."""
    result_path = out / f"cmd{j}.result"
    with open(out / f"cmd{j}.log", "w", encoding="utf-8") as log:
        spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), repr(spawn), str(result_path), str(int(traced)), run_id,
             "--", *argv],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"code": proc.returncode, "spawn": spawn, "exit": end, "rss_mb": usage.ru_maxrss / 1024}
    if proc.returncode == 0 and result_path.is_file():
        child = json.loads(result_path.read_text(encoding="utf-8"))
        record.update({k: child[k] for k in ("run_id", "imported", "setup_end", "spans")})
    return record


def median_op(ops: list[Op]) -> Op:
    return sorted(ops, key=lambda o: o.run_s)[(len(ops) - 1) // 2]


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values), "values": values}


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": NPROC},
        "commit": commit,
    }


def input_sizes(inputs: gen.Inputs) -> dict:
    return {
        "sets": {
            n: {"words": int(inputs.membership[i].sum()), "mb": p.stat().st_size / 1e6}
            for i, (n, p) in enumerate(zip(inputs.set_names, inputs.set_paths))
        },
        "shared_words": len(inputs.shared_words),
        "union_words": len(inputs.union_words),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, tiny: bool, root: Path) -> dict:
    shape = gen.Shape(**{**w.shape.__dict__, **TINY_SHAPE}) if tiny else w.shape
    dim, epochs = (TINY_DIM, TINY_EPOCHS) if tiny else (DIM, w.epochs)
    work = WORK_DIR / f"{w.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = child_env()
    started = time.perf_counter()
    inputs = gen.generate(shape, seed, work / "inputs")
    gen_s = time.perf_counter() - started

    reference = None
    scores, failures = {}, []
    ops: list[Op] = []

    def operation(k: int, traced: bool) -> Op:
        nonlocal reference, scores
        out = work / f"op{k}"
        out.mkdir(parents=True)
        run_id = f"{w.name}-seed{seed}-op{k}"
        cmds = [run_command(a, out, j, traced, f"{run_id}-cmd{j}", env)
                for j, a in enumerate(commands(w, inputs, out, dim, epochs, seed))]
        problems = [f"command {j} exited with {c['code']}" for j, c in enumerate(cmds) if c["code"] != 0]
        if not problems:
            problems, matrices = check_outputs(w, inputs, out, dim)
            digests = checks.digests(out)
            if reference is None:
                reference = digests
                if not problems:
                    scores, found = quality(w, inputs, out, matrices)
                    problems += found
            elif digests != reference:
                problems.append("outputs are not byte-identical to the first run with this seed")
        if reference is None:
            reference = {}  # a failed first run leaves nothing to compare against
        ok = not problems
        op = Op(
            traced=traced,
            run_s=sum(c["exit"] - c["spawn"] for c in cmds),
            setup_s=sum(c["setup_end"] - c["spawn"] for c in cmds) if ok else float("nan"),
            peak_rss_mb=max(c["rss_mb"] for c in cmds),
            problems=problems,
            commands=cmds,
        )
        failures.extend(f"op{k}: {p}" for p in problems)
        # Outputs stay on disk until the run ends: deleting tens of MB
        # between operations makes the filesystem free and discard blocks
        # while the next operation is timed.
        return op

    warmup = operation(0, False)
    measure_start = time.perf_counter()
    k = 1
    while True:
        timed = [o for o in ops if not o.traced]
        traced_ops = [o for o in ops if o.traced]
        enough = len(timed) >= MIN_TIMED_OPS and (not trace or len(traced_ops) >= MIN_TIMED_OPS)
        if enough and time.perf_counter() - measure_start >= seconds:
            break
        ops.append(operation(k, trace and k % 2 == 0))
        k += 1
    measured_s = time.perf_counter() - measure_start

    all_ops = [warmup, *ops]
    failed = sum(1 for o in all_ops if o.problems)
    good = [o for o in ops if not o.problems and not o.traced]
    e2e = {}
    if good and scores:
        e2e = {
            "setup_s": statistics.median(o.setup_s for o in good),
            "run_s": statistics.median(o.run_s for o in good),
            "peak_rss_mb": statistics.median(o.peak_rss_mb for o in good),
            "sim_rho": scores["sim_rho"],
            "analogy_acc": scores["analogy_acc"],
            "fill_err": scores["fill_err"],
        }
    per_layer, spans = {}, None
    good_traced = [o for o in ops if not o.problems and o.traced]
    if trace and good_traced and good:
        chosen = median_op(good_traced)
        per_layer = layers.layer_metrics(chosen.commands)
        per_layer["trace_overhead_s"] = (
            statistics.median(o.run_s for o in good_traced) - statistics.median(o.run_s for o in good)
        )
        per_layer["failed_frac"] = failed / len(all_ops)
        per_layer["final_loss"] = scores.get("final_loss", 0.0)
        spans = layers.flatten(chosen.commands)

    result = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "tiny": tiny,
        "correct": failed == 0 and bool(e2e) and (bool(per_layer) or not trace),
        "attempted": len(all_ops),
        "failed": failed,
        "failures": failures,
        "end_to_end": e2e,
        "quality": scores,
        "per_layer": per_layer,
        "samples": {
            "untraced": {m: summary([getattr(o, m) for o in good]) for m in ("run_s", "setup_s", "peak_rss_mb")} if good else {},
            "traced_run_s": summary([o.run_s for o in good_traced]) if good_traced else {},
        },
        "generate_s": gen_s,
        "measured_s": measured_s,
        "environment": environment(root),
        "inputs": input_sizes(inputs),
        "computed": layers.COMPUTED,
    }
    records = WORK_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{w.name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}.json"
    with open(records / name, "w", encoding="utf-8") as f:
        json.dump({**result, "spans": spans}, f, indent=1)
    shutil.rmtree(work)
    return result


# ---------------------------------------------------------------- reporting


def result_line(result: dict) -> dict:
    """The last stdout line: outcome counts and the metrics of the run's mode."""
    metrics = PER_LAYER if result["trace"] else END_TO_END
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics if m.name in values},
    }


def print_report(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}"
          f"{' tiny' if result['tiny'] else ''}: {result['attempted']} operations, "
          f"{result['failed']} failed, failed_frac {result['failed'] / result['attempted']:.4f}")
    env = result["environment"]
    print(f"   env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']['name']} {env['blas']['version']} x{env['blas']['threads']}, "
          f"commit {env['commit']}")
    inp = result["inputs"]
    sets = ", ".join(f"{n} {s['words']}w/{s['mb']:.1f}MB" for n, s in inp["sets"].items())
    print(f"   inputs: {sets}; shared {inp['shared_words']}, union {inp['union_words']}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    samples = result["samples"]["untraced"]
    for m in END_TO_END:
        if m.name in result["end_to_end"]:
            extra = ""
            if m.name in samples:
                s = samples[m.name]
                extra = f"  (median of {s['n']}, q1 {s['q1']:.4f}, q3 {s['q3']:.4f})"
            print(f"   {m.name:<14} {result['end_to_end'][m.name]:>12.4f} {m.unit}{extra}")
    if "final_loss" in result["quality"]:
        print(f"   {'final_loss':<14} {result['quality']['final_loss']:>12.4f} loss  (per-layer metric; 0 without a trainer)")
    for m in PER_LAYER:
        if m.name in result["per_layer"]:
            note = f"  computed: {layers.COMPUTED[m.name]}" if m.name in layers.COMPUTED else ""
            print(f"   {m.name:<34} {result['per_layer'][m.name]:>14.6g} {m.unit}{note}")
    if result["per_layer"]:
        pl = result["per_layer"]
        accounted = sum(pl[f"{x}.self_s"] for x in (*layers.LAYERS, "startup", "cli"))
        print(f"   trace accounting: layer self times {accounted:.6f} s of traced run_s {pl['trace.run_s']:.6f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*BY_NAME, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs: every check in seconds")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if args.write_spec:
        (root / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (root / "src" / "metaembed" / "__init__.py").is_file():
        print(f"error: {root} has no src/metaembed; run from the root of a metaembed checkout",
              file=sys.stderr)
        return 2

    names = list(BY_NAME) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(BY_NAME[name], args.seed, args.seconds, bool(args.trace), args.tiny, root)
        print_report(result)
        results.append(result)
    if args.workload == "all":
        print(json.dumps({r["workload"]: result_line(r) for r in results}))
    else:
        print(json.dumps(result_line(results[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
