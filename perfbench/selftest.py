"""Self-test of the benchmark at tiny sizes; runs in well under a minute.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

It exercises the generator, every output check, the traced and
untraced JSON lines of all three workloads, and the refusal to run
outside a checkout.  It is not collected by the repository's pytest run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

import checks
import gen
import layers
import run

HERE = Path(__file__).resolve().parent
SCRATCH = run.WORK_DIR / "selftest"
TINY = gen.Shape(**{**run.BY_NAME["latent-union"].shape.__dict__, **run.TINY_SHAPE})


def run_main(*argv: str) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().splitlines()


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_same_seed_same_files_other_seed_other_files(self):
        a = gen.generate(TINY, 5, SCRATCH / "a")
        b = gen.generate(TINY, 5, SCRATCH / "b")
        c = gen.generate(TINY, 6, SCRATCH / "c")
        for name in [p.name for p in sorted((SCRATCH / "a").iterdir())]:
            self.assertEqual((SCRATCH / "a" / name).read_bytes(), (SCRATCH / "b" / name).read_bytes())
        self.assertNotEqual(a.set_paths[0].read_bytes(), c.set_paths[0].read_bytes())
        np.testing.assert_array_equal(a.true_vectors[4], b.true_vectors[4])

    def test_planted_analogies_are_exact_in_latent_space(self):
        inputs = gen.generate(TINY, 7, SCRATCH / "a")
        index = {w: i for i, w in enumerate(inputs.words)}
        exact = [q for q in inputs.analogy_questions if all(w in index for w in q)]
        self.assertGreater(len(exact), 0.8 * len(inputs.analogy_questions))
        self.assertLess(len(exact), len(inputs.analogy_questions))  # some are OOV
        for a, b, c, d in exact:
            z = inputs.latent
            np.testing.assert_allclose(z[index[d]], z[index[c]] + z[index[b]] - z[index[a]], atol=1e-12)

    def test_hidden_words_are_absent_from_their_set(self):
        inputs = gen.generate(TINY, 8, SCRATCH / "a")
        for i, path in enumerate(inputs.set_paths):
            words, matrix = checks.read_vectors(path)
            hidden = {inputs.words[j] for j in inputs.hidden(i)}
            self.assertFalse(hidden & set(words))
            self.assertEqual(len(words) + len(hidden), len(inputs.words))
            self.assertEqual(matrix.shape[1], inputs.set_dims[i])


class ChecksTest(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def write(self, name: str, text: str) -> Path:
        path = SCRATCH / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_vector_checks(self):
        good = self.write("v.txt", "a 1 2\nb 3 4\n")
        self.assertEqual(checks.check_vectors(good, ["a", "b"], 2)[0], [])
        self.assertTrue(checks.check_vectors(good, ["b", "a"], 2)[0])  # row order
        self.assertTrue(checks.check_vectors(good, ["a", "b"], 3)[0])  # dimension
        self.assertTrue(checks.check_vectors(self.write("n.txt", "a 1 nan\nb 3 4\n"), ["a", "b"], 2)[0])
        self.assertTrue(checks.check_vectors(self.write("r.txt", "a 1 2\nb 3\n"), ["a", "b"], 2)[0])
        self.assertTrue(checks.check_vectors(SCRATCH / "missing.txt", ["a"], 2)[0])
        known = (np.array([True, False]), np.array([[1.0, 2.5], [0.0, 0.0]]))
        self.assertTrue(checks.check_vectors(good, ["a", "b"], 2, known)[0])

    def test_csv_checks(self):
        header = ",".join(checks.CSV_HEADER) + "\n"
        good = self.write("s.csv", header + "e,ws,50.0000,1,9\n")
        self.assertEqual(checks.check_csv(good, [("ws", 10)])[0], [])
        self.assertTrue(checks.check_csv(good, [("ws", 11)])[0])
        self.assertTrue(checks.check_csv(good, [("ws", 10), ("sl", 5)])[0])
        self.assertTrue(checks.check_csv(self.write("b.csv", "x\n"), [("ws", 10)])[0])

    def test_digests_see_one_byte(self):
        out = SCRATCH / "o"
        out.mkdir()
        (out / "x.txt").write_text("a 1\n")
        before = checks.digests(out)
        (out / "x.txt").write_text("a 2\n")
        self.assertNotEqual(before, checks.digests(out))

    def test_spearman_average_ranks(self):
        self.assertAlmostEqual(checks.spearman(np.array([1, 2, 3, 4, 5.0]), np.array([2, 3, 1, 4, 5.0])), 0.7)
        self.assertAlmostEqual(checks.spearman(np.array([1, 1, 2.0]), np.array([1, 1, 2.0])), 1.0)


class TinyRunTest(unittest.TestCase):
    def test_spec_is_committed(self):
        path = Path("BENCHMARK.json")
        self.assertEqual(json.loads(path.read_text(encoding="utf-8")), run.spec())

    def test_spec_within_limits(self):
        spec = run.spec()
        name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertRegex(w["name"], name)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        metrics = spec["end_to_end"] + spec["per_layer"]
        self.assertEqual(len({m["name"] for m in metrics}), len(metrics))
        for m in metrics:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_untraced_lines_carry_every_end_to_end_metric(self):
        code, lines = run_main("--workload", "all", "--tiny", "--seconds", "0", "--trace", "0")
        self.assertEqual(code, 0)
        results = json.loads(lines[-1])
        for name, line in results.items():
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"], name)
            self.assertEqual(line["failed"], 0)
            self.assertGreaterEqual(line["attempted"], 1 + run.MIN_TIMED_OPS)
            self.assertEqual(list(line["metrics"]), [m.name for m in run.END_TO_END])
            for metric, value in line["metrics"].items():
                self.assertTrue(math.isfinite(value["value"]) and value["value"] != 0, (name, metric))

    def test_traced_lines_account_for_run_time_and_bypassed_layers(self):
        code, lines = run_main("--workload", "all", "--tiny", "--seconds", "0", "--trace", "1")
        self.assertEqual(code, 0)
        results = {w: {k: v["value"] for k, v in line["metrics"].items()}
                   for w, line in json.loads(lines[-1]).items()}
        for name, m in results.items():
            self.assertEqual(list(m), [x.name for x in run.PER_LAYER])
            accounted = sum(m[f"{x}.self_s"] for x in (*layers.LAYERS, "startup", "cli"))
            self.assertAlmostEqual(accounted, m["trace.run_s"], places=9)
            self.assertEqual(m["failed_frac"], 0)
        svd, union, extend = results["build-svd"], results["latent-union"], results["extend-projected"]
        for m in (union, extend):
            self.assertEqual(m["linalg.calls"], 0)
            self.assertEqual(m["ensemble.svd_reduce_s"], 0)
        for m in (svd, union):
            self.assertEqual(m["oov.calls"], 0)
        self.assertEqual(svd["optimizer.calls"], 0)
        self.assertEqual(svd["ensemble.train_s"], 0)
        self.assertEqual(extend["ensemble.calls"], 0)
        self.assertGreater(svd["linalg.svd_gflop"], 0)
        self.assertGreater(union["ensemble.loss_grads_gflop"], 0)
        self.assertGreater(union["final_loss"], 0)
        self.assertEqual(extend["oov.projections"], 20)
        self.assertEqual(extend["oov.projection_epochs"], 20 * run.TINY_EPOCHS)
        self.assertGreater(extend["oov.filled_words"], 0)

    def test_refuses_to_run_outside_a_checkout(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "build-svd", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
