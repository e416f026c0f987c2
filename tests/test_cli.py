import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from metaembed import cli
from metaembed.cli import main, parse_set_spec, resolve_dataset
from metaembed.io import EmbeddingSet, load_embedding_set, save_embedding_set


@pytest.fixture
def toy_files(tmp_path):
    rng = np.random.default_rng(0)
    vocab = sorted(f"w{i:02d}" for i in range(12))
    paths = {}
    for name, dim in (("alpha", 3), ("beta", 4)):
        emb = EmbeddingSet(name, vocab, rng.normal(size=(len(vocab), dim)))
        path = tmp_path / f"{name}.txt"
        save_embedding_set(emb, path)
        paths[name] = path
    return tmp_path, paths


@pytest.fixture
def ab_files(tmp_path):
    """a (30 words x 4) and b (its last 24 words x 5): b misses 6 union words."""
    rng = np.random.default_rng(2)
    words = [f"w{i:02d}" for i in range(30)]
    paths = {}
    for name, vocab, dim in (("a", words, 4), ("b", words[6:], 5)):
        paths[name] = tmp_path / f"{name}.txt"
        emb = EmbeddingSet(name, vocab, rng.normal(size=(len(vocab), dim)))
        save_embedding_set(emb, paths[name])
    return tmp_path, paths


def outputs(out_dir):
    """The bytes of each vector file in ``out_dir``, by file name."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.suffix == ".txt"}


def set_args(paths, weights=None):
    weights = weights or {}
    return [
        f"{name}={path}" + (f":{weights[name]}" if name in weights else "")
        for name, path in paths.items()
    ]


class TestParseSetSpec:
    def test_basic(self):
        spec = parse_set_spec("glove=vectors/glove.txt")
        assert (spec.name, spec.path, spec.weight) == ("glove", "vectors/glove.txt", 1.0)
        assert not spec.column_normalize

    def test_weight_and_colnorm(self):
        spec = parse_set_spec("glove=g.txt:8:colnorm")
        assert spec.weight == 8.0
        assert spec.column_normalize

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad set spec"):
            parse_set_spec("missing-equals")
        with pytest.raises(ValueError, match="trailing field"):
            parse_set_spec("a=b.txt:2:normalize")
        with pytest.raises(ValueError, match="weight"):
            parse_set_spec("a=b.txt:heavy")


class TestInfo:
    def test_prints_counts(self, toy_files, capsys):
        _, paths = toy_files
        assert main(["info", "--sets", *set_args(paths)]) == 0
        out = capsys.readouterr().out
        assert "alpha: 12 words, 3 dimensions" in out
        assert "intersection: 12 words" in out
        assert "union: 12 words" in out


class TestBuild:
    def test_concat_dim_is_sum_of_dims(self, toy_files):
        tmp_path, paths = toy_files
        out_dir = tmp_path / "out"
        rc = main([
            "build", "--sets", *set_args(paths),
            "--method", "concat", "--out", str(out_dir),
        ])
        assert rc == 0
        built = load_embedding_set(out_dir / "concat.txt")
        assert built.dim == 7
        metadata = json.loads((out_dir / "concat.json").read_text())
        assert metadata["method"] == "concat"
        assert metadata["dim"] == 7

    def test_svd_defaults_to_dim_200(self):
        from metaembed.cli import build_parser
        args = build_parser().parse_args(
            ["build", "--sets", "a=x.txt", "--method", "svd", "--out", "o"]
        )
        assert args.dim is None  # falls through to the package default
        from metaembed.ensemble import DEFAULT_DIM
        assert DEFAULT_DIM == 200

    def test_svd_build_with_small_dim(self, toy_files):
        tmp_path, paths = toy_files
        out_dir = tmp_path / "svd_out"
        rc = main([
            "build", "--sets", *set_args(paths),
            "--method", "svd", "--dim", "3", "--out", str(out_dir),
        ])
        assert rc == 0
        built = load_embedding_set(out_dir / "svd.txt")
        assert built.dim == 3
        np.testing.assert_allclose(np.linalg.norm(built.matrix, axis=1), 1.0, atol=1e-6)

    def test_latent_rerun_is_byte_identical(self, toy_files):
        tmp_path, paths = toy_files
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            rc = main([
                "build", "--sets", *set_args(paths, {"alpha": 8}),
                "--method", "latent", "--dim", "4", "--out", str(out_dir),
            ])
            assert rc == 0
            outputs.append((out_dir / "latent.txt").read_bytes())
        assert outputs[0] == outputs[1]

    def test_latent_union_writes_extended_sets(self, toy_files):
        tmp_path, paths = toy_files
        out_dir = tmp_path / "union_out"
        rc = main([
            "build", "--sets", *set_args(paths),
            "--method", "latent_union", "--dim", "3", "--out", str(out_dir),
            "--epochs", "10", "--seed", "1",
        ])
        assert rc == 0
        assert (out_dir / "latent_union.txt").exists()
        assert (out_dir / "alpha.extended.txt").exists()
        assert (out_dir / "beta.extended.txt").exists()

    def test_unknown_method_fails(self, toy_files, capsys):
        tmp_path, paths = toy_files
        with pytest.raises(SystemExit):
            main([
                "build", "--sets", *set_args(paths),
                "--method", "pca", "--out", str(tmp_path / "x"),
            ])

    def test_requires_two_sets(self, toy_files, capsys):
        tmp_path, paths = toy_files
        rc = main([
            "build", "--sets", f"alpha={paths['alpha']}",
            "--method", "concat", "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert "at least 2" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, ab_files):
        tmp_path, paths = ab_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sets": set_args(paths),
            "strategy": "random",
            "seed": 11,
        }))
        out_a = tmp_path / "from_config"
        assert main(["extend", "--config", str(config), "--out", str(out_a)]) == 0
        assert json.loads((out_a / "extend.json").read_text())["seed"] == 11

        out_b = tmp_path / "flag_wins"
        assert main([
            "extend", "--config", str(config), "--out", str(out_b), "--seed", "3",
        ]) == 0
        assert json.loads((out_b / "extend.json").read_text())["seed"] == 3
        assert outputs(out_a) != outputs(out_b)  # the fills were drawn from the typed seed

    def test_latent_sidecar_records_no_training_settings(self, toy_files):
        tmp_path, paths = toy_files
        out_dir = tmp_path / "latent"
        assert main([
            "build", "--sets", *set_args(paths), "--method", "latent",
            "--dim", "3", "--out", str(out_dir),
        ]) == 0
        sidecar = json.loads((out_dir / "latent.json").read_text())
        assert sidecar["final_loss"] > 0
        for field in ("epochs_run", "batch_size", "learning_rate", "l2_weight"):
            assert field not in sidecar

    def test_latent_dim_above_rank_fails(self, toy_files, capsys):
        # 12 shared words and 3 + 4 columns: no rank-8 fit exists
        tmp_path, paths = toy_files
        rc = main([
            "build", "--sets", *set_args(paths), "--method", "latent",
            "--dim", "8", "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert "d=8 out of range for a 12x7 matrix" in capsys.readouterr().err

    @pytest.fixture
    def huge_files(self, tmp_path):
        rng = np.random.default_rng(3)
        words = [f"w{i:02d}" for i in range(50)]
        paths = {}
        for name in ("big1", "big2"):
            emb = EmbeddingSet(name, words, rng.normal(size=(50, 4)) * 1e200)
            paths[name] = tmp_path / f"{name}.txt"
            save_embedding_set(emb, paths[name])
        return tmp_path, paths

    def run_warnings_as_errors(self, huge_files, method):
        tmp_path, paths = huge_files
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main([
                "build", "--sets", *set_args(paths), "--method", method,
                "--dim", "2", "--out", str(tmp_path / "out"),
            ])

    def test_diverging_run_reports_only_the_named_error(self, huge_files, capsys):
        assert self.run_warnings_as_errors(huge_files, "latent_union") == 1
        err = capsys.readouterr().err
        assert err == "error: the Gram matrix of the 50x8 matrix is not finite\n"

    def test_latent_overflow_reports_only_the_named_error(self, huge_files, capsys):
        assert self.run_warnings_as_errors(huge_files, "latent") == 1
        err = capsys.readouterr().err
        assert err == "error: the Gram matrix of the 50x8 matrix is not finite\n"

    def test_unknown_config_keys_rejected(self, toy_files, capsys):
        tmp_path, paths = toy_files
        config = tmp_path / "typos.json"
        config.write_text(json.dumps({
            "sets": set_args(paths), "method": "latent", "lr": 0.5, "epoch": 3,
        }))
        rc = main(["build", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown config key(s) lr, epoch;" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("method, flags, named", [
        ("concat", ["--dim", "2", "--epochs", "5", "--l2", "3"], "--dim, --l2, --epochs"),
        ("svd", ["--dim", "3", "--epochs", "5"], "--epochs"),
        ("latent", ["--dim", "3", "--epochs", "5", "--l2", "0.1", "--seed", "2"],
         "--l2, --epochs, --seed"),
        ("latent_union", ["--dim", "3", "--epochs", "5", "--l2", "0.1", "--seed", "2"],
         "--l2, --epochs, --seed"),
    ])
    def test_unused_options_warned(self, toy_files, capsys, method, flags, named):
        tmp_path, paths = toy_files
        rc = main([
            "build", "--sets", *set_args(paths), "--method", method,
            "--out", str(tmp_path / method), *flags,
        ])
        assert rc == 0
        expected = f"warning: no effect on build --method {method}: {named}\n"
        assert capsys.readouterr().err == expected

    def test_trained_methods_read_every_option(self, toy_files, capsys):
        # latent and latent_union read --dim and the set weights, and no setting
        tmp_path, paths = toy_files
        for method in ("latent", "latent_union"):
            rc = main([
                "build", "--sets", *set_args(paths, {"alpha": 2}), "--method", method,
                "--out", str(tmp_path / method), "--dim", "2",
            ])
            assert rc == 0
        assert capsys.readouterr().err == ""


class TestExtend:
    @pytest.fixture
    def partial_files(self, tmp_path):
        rng = np.random.default_rng(1)
        common = [f"common{i}" for i in range(5)]
        a = EmbeddingSet("a", common + ["only_a"], rng.normal(size=(6, 2)))
        b = EmbeddingSet("b", common + ["only_b"], rng.normal(size=(6, 3)))
        paths = {}
        for emb in (a, b):
            path = tmp_path / f"{emb.name}.txt"
            save_embedding_set(emb, path)
            paths[emb.name] = path
        return tmp_path, paths

    def test_random_strategy_reproducible(self, partial_files):
        tmp_path, paths = partial_files
        outputs = []
        for run in ("r1", "r2"):
            out_dir = tmp_path / run
            rc = main([
                "extend", "--sets", *set_args(paths),
                "--strategy", "random", "--out", str(out_dir), "--seed", "3",
            ])
            assert rc == 0
            outputs.append((out_dir / "a.extended.txt").read_bytes())
        assert outputs[0] == outputs[1]

    def test_projected_strategy_covers_union(self, partial_files):
        tmp_path, paths = partial_files
        out_dir = tmp_path / "ml"
        rc = main([
            "extend", "--sets", *set_args(paths),
            "--strategy", "projected", "--out", str(out_dir),
            "--epochs", "50", "--seed", "0",
        ])
        assert rc == 0
        for name in ("a", "b"):
            ext = load_embedding_set(out_dir / f"{name}.extended.txt")
            assert len(ext) == 7

    def test_unused_training_options_warned(self, partial_files, capsys):
        tmp_path, paths = partial_files
        config = tmp_path / "extend.json"
        config.write_text(json.dumps({"epochs": 10, "l2_weight": 0.1}))
        rc = main([
            "extend", "--sets", *set_args(paths), "--config", str(config),
            "--strategy", "projected", "--out", str(tmp_path / "warn"), "--seed", "1",
        ])
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["warning: no effect on extend --strategy projected: --epochs, --seed"]

    def test_no_warning_without_training_options(self, partial_files, capsys):
        # projected reads --l2 but not --seed, which only random fills draw on
        tmp_path, paths = partial_files
        rc = main([
            "extend", "--sets", *set_args(paths), "--strategy", "projected",
            "--out", str(tmp_path / "quiet"), "--l2", "0.1", "--seed", "1",
        ])
        assert rc == 0
        expected = "warning: no effect on extend --strategy projected: --seed\n"
        assert capsys.readouterr().err == expected

    def test_huge_projected_sets_print_no_warning(self, tmp_path, capsys):
        # Unscaled, these rows' Gram matrix overflows; the fit scales them first.
        rng = np.random.default_rng(4)
        words = [f"w{i:02d}" for i in range(80)]
        paths = {}
        for name, vocab, dim in (("a", words[:70], 4), ("b", words[10:], 5)):
            paths[name] = tmp_path / f"{name}.txt"
            emb = EmbeddingSet(name, vocab, rng.normal(size=(len(vocab), dim)) * 1e200)
            save_embedding_set(emb, paths[name])
        out_dir = tmp_path / "huge"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "extend", "--sets", *set_args(paths), "--strategy", "projected",
                "--out", str(out_dir),
            ])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert [line.split()[0] for line in captured.out.splitlines()] == ["wrote"] * 2
        for name in ("a", "b"):
            assert len(load_embedding_set(out_dir / f"{name}.extended.txt")) == 80

    def test_average_strategy_rows_identical(self, partial_files):
        tmp_path, paths = partial_files
        out_dir = tmp_path / "avg"
        rc = main([
            "extend", "--sets", *set_args(paths),
            "--strategy", "average", "--out", str(out_dir),
        ])
        assert rc == 0
        ext = load_embedding_set(out_dir / "a.extended.txt")
        original = load_embedding_set(paths["a"])
        expected = original.matrix.mean(axis=0)
        np.testing.assert_allclose(ext.row("only_b"), expected, atol=1e-8)


    def test_word_beginning_with_a_byte_order_mark_is_extended(self, tmp_path):
        # files that start with a byte-order mark, concatenated, hold one at
        # the start of a later line; the loader keeps it in that word
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("a 1 2\n\ufeffb 3 4\nc 5 6\n", encoding="utf-8")
        b.write_text("a 1 2 3\nd 4 5 6\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        rc = main(["extend", "--sets", f"a={a}", f"b={b}", "--strategy", "average",
                   "--out", str(out_dir)])
        assert rc == 0
        for name in ("a", "b"):
            assert load_embedding_set(out_dir / f"{name}.extended.txt").words == ["a", "c", "d", "\ufeffb"]
        assert (out_dir / "a.extended.txt").read_text(encoding="utf-8").endswith("\ufeffb 3 4\n")


class TestKnownRowsOnDisk:
    @pytest.fixture
    def precise_files(self, tmp_path):
        """Three sets over 40 words, each missing some, written with 17
        significant digits, which 9-digit formatting would round."""
        rng = np.random.default_rng(6)
        words = [f"w{i:02d}" for i in range(40)]
        paths = {}
        for name, vocab, dim in (("a", words[:34], 4), ("b", words[4:], 5), ("c", words[::2], 3)):
            rows = rng.normal(size=(len(vocab), dim))
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text("".join(
                f"{w} " + " ".join(format(v, ".17g") for v in row) + "\n" for w, row in zip(vocab, rows)
            ), encoding="utf-8")
        return tmp_path, paths

    @pytest.mark.parametrize("command", [
        ["extend", "--strategy", "projected"],
        ["build", "--method", "latent_union", "--dim", "3"],
    ])
    def test_known_rows_reload_bit_for_bit(self, precise_files, command):
        tmp_path, paths = precise_files
        out_dir = tmp_path / "out"
        assert main([command[0], "--sets", *set_args(paths), *command[1:], "--out", str(out_dir)]) == 0
        for name, path in paths.items():
            source = load_embedding_set(path)
            ext = load_embedding_set(out_dir / f"{name}.extended.txt")
            assert len(ext) == 40
            known = ext.matrix[[ext.index[w] for w in source.words]]
            assert np.array_equal(known.view(np.int64), source.matrix.view(np.int64))

    def test_saving_over_an_input_formats_it(self, precise_files):
        # --sets a=out/a.extended.txt --out out: each output replaces its own
        # input, which save must not copy from while it writes
        tmp_path, paths = precise_files
        out_dir = tmp_path / "out"
        assert main(["extend", "--sets", *set_args(paths), "--strategy", "average",
                     "--out", str(out_dir)]) == 0
        inputs = {name: out_dir / f"{name}.extended.txt" for name in paths}
        expected = {}
        for name, path in inputs.items():
            save_embedding_set(load_embedding_set(path), tmp_path / "formatted.txt")
            expected[name] = (tmp_path / "formatted.txt").read_bytes()
        assert main(["extend", "--sets", *set_args(inputs), "--strategy", "average",
                     "--out", str(out_dir)]) == 0
        assert {name: path.read_bytes() for name, path in inputs.items()} == expected


class TestEvalCommands:
    @pytest.fixture
    def eval_fixture(self, tmp_path):
        emb = EmbeddingSet(
            "toy",
            ["cat", "dog", "car", "bus"],
            [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]],
        )
        emb_path = tmp_path / "toy.txt"
        save_embedding_set(emb, emb_path)
        sim_path = tmp_path / "pairs.txt"
        sim_path.write_text("cat dog 9\ncat car 1\ndog bus 4\n", encoding="utf-8")
        return tmp_path, emb_path, sim_path

    def test_eval_sim_csv(self, eval_fixture, capsys):
        _, emb_path, sim_path = eval_fixture
        rc = main(["eval-sim", "--emb", str(emb_path), "--datasets", str(sim_path)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "embedding,dataset,score,oov_count,evaluated"
        assert out[1] == "toy,pairs,100.0000,0,3"

    def test_eval_sim_missing_dataset(self, eval_fixture, capsys):
        _, emb_path, _ = eval_fixture
        rc = main(["eval-sim", "--emb", str(emb_path), "--datasets", "nope.txt"])
        assert rc == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_eval_sim_multiple_embeddings_in_order(self, eval_fixture, tmp_path, capsys):
        _, emb_path, sim_path = eval_fixture
        second = tmp_path / "zz.txt"
        save_embedding_set(load_embedding_set(emb_path, name="zz"), second)
        rc = main([
            "eval-sim", "--emb", str(second), str(emb_path),
            "--datasets", str(sim_path),
        ])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].startswith("zz,")
        assert rows[1].startswith("toy,")

    def test_eval_sim_loads_each_dataset_once(self, eval_fixture, tmp_path, monkeypatch, capsys):
        import metaembed.cli as cli

        _, emb_path, sim_path = eval_fixture
        second = tmp_path / "zz.txt"
        save_embedding_set(load_embedding_set(emb_path, name="zz"), second)
        other = tmp_path / "other.txt"
        other.write_text("cat bus 2\ndog car 3\ncat dog 8\n", encoding="utf-8")
        loaded = []
        load = cli.load_similarity_dataset
        monkeypatch.setattr(cli, "load_similarity_dataset", lambda p: loaded.append(p) or load(p))
        rc = main([
            "eval-sim", "--emb", str(emb_path), str(second),
            "--datasets", str(sim_path), str(other),
        ])
        assert rc == 0
        assert [p.name for p in loaded] == ["pairs.txt", "other.txt"]
        assert capsys.readouterr().out == (
            "embedding,dataset,score,oov_count,evaluated\n"
            "toy,pairs,100.0000,0,3\n"
            "toy,other,86.6025,0,3\n"
            "zz,pairs,100.0000,0,3\n"
            "zz,other,86.6025,0,3\n"
        )

    def test_eval_sim_dataset_root_env(self, eval_fixture, monkeypatch, capsys):
        tmp_path, emb_path, sim_path = eval_fixture
        monkeypatch.setenv("METAEMBED_DATA_DIR", str(tmp_path))
        rc = main(["eval-sim", "--emb", str(emb_path), "--datasets", "pairs.txt"])
        assert rc == 0
        assert "pairs" in capsys.readouterr().out

    def test_eval_analogy_csv(self, tmp_path, capsys):
        man = np.array([1.0, 0.0])
        king = np.array([0.0, 1.0])
        woman = np.array([0.6, 0.8])
        queen = king - man + woman
        queen /= np.linalg.norm(queen)
        emb = EmbeddingSet(
            "royal",
            ["man", "king", "woman", "queen", "apple"],
            np.stack([man, king, woman, queen, [-1.0, 0.0]]),
        )
        emb_path = tmp_path / "royal.txt"
        save_embedding_set(emb, emb_path)
        ds_path = tmp_path / "questions.txt"
        ds_path.write_text(
            ": family\nman king woman queen\n"
            ": gram1-x\nman king woman missing\n",
            encoding="utf-8",
        )
        rc = main(["eval-analogy", "--emb", str(emb_path), "--dataset", str(ds_path)])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == "royal,questions:semantic,100.0000,0,1"
        assert rows[2] == "royal,questions:syntactic,0.0000,1,0"
        assert rows[3] == "royal,questions:total,100.0000,1,1"


class TestSweep:
    def test_weight_sweep_two_rows(self, toy_files, capsys):
        tmp_path, paths = toy_files
        dev = tmp_path / "dev.txt"
        dev.write_text("w00 w01 9\nw02 w03 5\nw04 w05 1\n", encoding="utf-8")
        rc = main([
            "sweep", "--sets", *set_args(paths, {"alpha": 8}),
            "--param", "weight", "--values", "1,8",
            "--method", "concat", "--dev", str(dev),
        ])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "value,score"
        assert len(rows) == 3
        assert rows[1].startswith("1,")
        assert rows[2].startswith("8,")

    def test_single_value_sweep_matches_build_eval(self, toy_files, capsys):
        tmp_path, paths = toy_files
        dev = tmp_path / "dev.txt"
        dev.write_text("w00 w01 9\nw02 w03 5\nw04 w05 1\n", encoding="utf-8")
        rc = main([
            "sweep", "--sets", *set_args(paths),
            "--param", "dim", "--values", "3",
            "--method", "svd", "--dev", str(dev),
        ])
        assert rc == 0
        sweep_score = capsys.readouterr().out.splitlines()[1].split(",")[1]

        out_dir = tmp_path / "single"
        main([
            "build", "--sets", *set_args(paths),
            "--method", "svd", "--dim", "3", "--out", str(out_dir),
        ])
        capsys.readouterr()
        main([
            "eval-sim", "--emb", str(out_dir / "svd.txt"),
            "--datasets", str(dev),
        ])
        eval_score = capsys.readouterr().out.splitlines()[1].split(",")[2]
        assert sweep_score == eval_score

    def test_dim_sweep_validates_upper_bound(self, toy_files, capsys):
        tmp_path, paths = toy_files
        dev = tmp_path / "dev.txt"
        dev.write_text("w00 w01 9\nw02 w03 5\n", encoding="utf-8")
        rc = main([
            "sweep", "--sets", *set_args(paths),
            "--param", "dim", "--values", "3,100",
            "--method", "svd", "--dev", str(dev),
        ])
        assert rc == 1
        assert "dim values" in capsys.readouterr().err

    @pytest.mark.parametrize("value, code", [("30", 0), ("40", 0), ("41", 1)])
    def test_latent_union_dim_bounded_by_union(self, tmp_path, capsys, value, code):
        # 20 shared and 40 union words over two 20-dim sets: build accepts a
        # dim up to min(union words, summed dims) = 40, and so must the sweep
        rng = np.random.default_rng(3)
        words = [f"w{i:02d}" for i in range(40)]
        sets = []
        for name, vocab in (("a", words[:30]), ("b", words[10:])):
            save_embedding_set(EmbeddingSet(name, vocab, rng.normal(size=(30, 20))),
                               tmp_path / f"{name}.txt")
            sets.append(f"{name}={tmp_path / name}.txt")
        dev = tmp_path / "dev.txt"
        dev.write_text("w00 w39 9\nw12 w20 5\nw05 w33 1\n", encoding="utf-8")
        common = ["--sets", *sets, "--method", "latent_union", "--epochs", "2"]
        build = main(["build", *common, "--dim", value, "--out", str(tmp_path / "out")])
        sweep = main(["sweep", *common, "--param", "dim", "--values", value, "--dev", str(dev)])
        assert (build, sweep) == (code, code)
        err = capsys.readouterr().err
        assert ("dim values must be integers in [1, 40], got [41.0]" in err) == bool(code)

    def test_unused_options_warned(self, toy_files, capsys):
        tmp_path, paths = toy_files
        dev = tmp_path / "dev.txt"
        dev.write_text("w00 w01 9\nw02 w03 5\n", encoding="utf-8")
        rc = main([
            "sweep", "--sets", *set_args(paths), "--param", "dim", "--values", "2,3",
            "--method", "svd", "--dev", str(dev), "--dim", "4", "--seed", "5",
        ])
        assert rc == 0
        # a dimension sweep takes each dimension from --values
        expected = "warning: no effect on sweep --method svd: --dim, --seed\n"
        assert capsys.readouterr().err == expected

    def test_dim_sweep_rejected_for_concat(self, toy_files, capsys):
        tmp_path, paths = toy_files
        dev = tmp_path / "dev.txt"
        dev.write_text("w00 w01 9\nw02 w03 5\n", encoding="utf-8")
        rc = main([
            "sweep", "--sets", *set_args(paths),
            "--param", "dim", "--values", "3",
            "--method", "concat", "--dev", str(dev),
        ])
        assert rc == 1


def test_resolve_dataset_error_names_path():
    with pytest.raises(ValueError, match="definitely_missing.txt"):
        resolve_dataset("definitely_missing.txt")


SWEEP = ["sweep", "--sets", "a=a.txt", "b=b.txt", "--method", "svd", "--param", "dim",
         "--dev", "dev.txt", "--values"]


@pytest.mark.parametrize("argv, error", [
    (["build", "--sets", "=a.txt", "b=b.txt", "--method", "svd", "--out", "out"],
     "bad set spec '=a.txt': empty name or path"),
    (["build", "--sets", "a=", "b=b.txt", "--method", "svd", "--out", "out"],
     "bad set spec 'a=': empty name or path"),
    (["build", "--sets", "a=x.txt:1:colnorm:z", "b=b.txt", "--method", "svd", "--out", "out"],
     "bad set spec 'a=x.txt:1:colnorm:z': too many fields"),
    (["build", "--config", "config.json", "--out", "out"], "config.json: config must be a JSON object"),
    (["build", "--method", "svd", "--out", "out"], "no embedding sets given (use --sets or a config file)"),
    (["build", "--sets", "a=a.txt", "b=b.txt", "--out", "out"], "no method given (use --method or a config file)"),
    ([*SWEEP, "1,x"], "bad --values '1,x': expected comma-separated numbers"),
    ([*SWEEP, ","], "empty --values grid"),
    (["build", "--sets", "a=a.txt", "--method", "svd", "--out", "out"], "build needs at least 2 sets, got 1"),
])
def test_bad_arguments_refused_before_any_load(tmp_path, monkeypatch, argv, error):
    monkeypatch.chdir(tmp_path)  # no vector file exists: every error comes first
    (tmp_path / "config.json").write_text("[]", encoding="utf-8")
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        cli._config_flags(args.config) if args.config else args.func(args)


class TestFlagPrecedence:
    def test_flags_beat_config_file(self, toy_files):
        # the file beats the defaults, and typed flags beat the file
        tmp_path, paths = toy_files
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"dim": 3, "method": "latent"}))
        for typed, dim in (([], 3), (["--dim", "2"], 2)):
            out_dir = tmp_path / f"out{dim}"
            assert main([
                "build", "--sets", *set_args(paths), "--method", "latent_union",
                "--config", str(config), "--out", str(out_dir), *typed,
            ]) == 0
            sidecar = json.loads((out_dir / "latent_union.json").read_text())
            assert (sidecar["method"], sidecar["dim"]) == ("latent_union", dim)


class TestConfigFile:
    """A config file is read as flags typed before the command line's own."""

    def write(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    @pytest.mark.parametrize("config", [
        {"method": "latent_union", "epochs": True},
        {"method": "svd", "dim": 2.7},
        {"method": "latent_union", "seed": 1.5},
        {"method": "cbow"},
        {"method": "latent_union", "l2_weight": "fast"},
    ], ids=["bool-epochs", "float-dim", "float-seed", "unknown-method", "text-l2"])
    def test_badly_typed_value_is_an_argparse_error(self, toy_files, capsys, config):
        tmp_path, paths = toy_files
        path = self.write(tmp_path, {"sets": set_args(paths), **config})
        with pytest.raises(SystemExit) as exit_info:
            main(["build", "--config", path, "--out", str(tmp_path / "x")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @staticmethod
    def parsed_args(monkeypatch, command):
        """The arguments ``command`` is run with, recorded in a list instead."""
        parsed = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: parsed.append(args) or 0)
        return parsed

    @pytest.mark.parametrize("key, text, field, value", [
        ("epochs", "5", "epochs", 5),
        ("l2_weight", "0.1", "l2_weight", 0.1),
        ("dim", "2", "dim", 2),
    ])
    def test_number_as_text_is_read_as_its_flag(self, toy_files, monkeypatch, key, text, field,
                                                value):
        tmp_path, paths = toy_files
        parsed = self.parsed_args(monkeypatch, "build")
        config = {
            "sets": set_args(paths), "method": "latent_union", "epochs": 2, "dim": 2, key: text,
        }
        assert main(["build", "--config", self.write(tmp_path, config), "--out", "x"]) == 0
        assert getattr(parsed[0], field) == value

    def test_byte_order_mark_is_skipped(self, toy_files):
        tmp_path, paths = toy_files
        path = tmp_path / "bom.json"
        config = {"sets": set_args(paths), "method": "latent", "dim": 2}
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(config).encode("utf-8"))
        assert main(["build", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "latent.json").read_text())["dim"] == 2

    def test_sets_as_one_string_is_one_set(self, toy_files, capsys):
        tmp_path, paths = toy_files
        path = self.write(tmp_path, {"sets": f"alpha={paths['alpha']}"})
        assert main(["info", "--config", path]) == 0
        assert capsys.readouterr().out == "alpha: 12 words, 3 dimensions\n"

    def test_key_without_flag_is_warned(self, toy_files, capsys):
        tmp_path, paths = toy_files
        path = self.write(tmp_path, {"sets": set_args(paths), "method": "svd", "dim": 3})
        assert main(["extend", "--config", path, "--out", str(tmp_path / "ext")]) == 0
        assert capsys.readouterr().err == "warning: no effect on extend: --method, --dim\n"
        assert (tmp_path / "ext" / "alpha.extended.txt").exists()

    def test_build_config_on_info_is_warned(self, toy_files, capsys):
        tmp_path, paths = toy_files
        path = self.write(tmp_path, {
            "sets": set_args(paths), "method": "latent_union", "dim": 3, "epochs": 4,
        })
        assert main(["info", "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: no effect on info: --method, --dim, --epochs\n"
        assert "intersection: 12 words" in captured.out

    @pytest.mark.parametrize("key, file_value, typed", [
        ("method", "concat", "svd"),
        ("dim", 2, "3"),
        ("strategy", "random", "average"),
        ("l2_weight", 0.01, "0.001"),
        ("epochs", 4, "3"),
        ("seed", 9, "2"),
    ])
    def test_typed_flag_beats_file(self, toy_files, monkeypatch, key, file_value, typed):
        tmp_path, paths = toy_files
        command = "extend" if key == "strategy" else "build"
        parsed = self.parsed_args(monkeypatch, command)
        config = {"sets": set_args(paths), key: file_value}
        assert main([
            command, "--config", self.write(tmp_path, config), "--out", "x",
            cli._FLAGS[key], typed,
        ]) == 0
        assert str(getattr(parsed[0], key)) == typed

    def test_typed_sets_beat_file(self, toy_files):
        tmp_path, paths = toy_files
        config = {"sets": ["x=missing.txt", "y=missing.txt"], "method": "concat"}
        out_dir = tmp_path / "out"
        assert main([
            "build", "--config", self.write(tmp_path, config), "--out", str(out_dir),
            "--sets", *set_args(paths),
        ]) == 0
        sidecar = json.loads((out_dir / "concat.json").read_text())
        assert [s["name"] for s in sidecar["sets"]] == ["alpha", "beta"]

    def test_entry_point_reads_sys_argv(self, toy_files, monkeypatch):
        # the installed ``metaembed`` script calls main() with no arguments
        tmp_path, paths = toy_files
        path = self.write(tmp_path, {"sets": set_args(paths), "method": "svd", "dim": "3"})
        out_dir = tmp_path / "out"
        monkeypatch.setattr("sys.argv", ["metaembed", "build", "--config", path,
                                         "--out", str(out_dir)])
        assert main() == 0
        assert load_embedding_set(out_dir / "svd.txt").dim == 3

    def test_invalid_json_names_the_file(self, toy_files, capsys):
        tmp_path, _ = toy_files
        path = tmp_path / "broken.json"
        path.write_text('{"sets":\n')
        rc = main(["build", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: not valid JSON: Expecting value: line 2 column 1 (char 9)\n"
        assert not (tmp_path / "x").exists()

    def test_argparse_error_from_the_file_names_it(self, toy_files, capsys):
        # typed flags parse alone first, so only a bad file value draws the note
        tmp_path, paths = toy_files
        path = self.write(tmp_path, {"sets": set_args(paths), "epochs": True})
        note = f"error: that value comes from --config {path}"
        with pytest.raises(SystemExit) as exit_info:
            main(["build", "--config", path, "--method", "latent_union", "--out", "x"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-2:] == [
            "metaembed build: error: argument --epochs: invalid int value: 'True'", note,
        ]
        with pytest.raises(SystemExit):
            main(["build", "--config", path, "--batch-size", "two", "--out", "x"])
        assert note not in capsys.readouterr().err

    def test_unread_file_key_is_warned_as_its_flag(self, ab_files, capsys):
        tmp_path, paths = ab_files
        path = self.write(tmp_path, {"seed": 3})
        assert main([
            "extend", "--sets", *set_args(paths), "--config", path,
            "--strategy", "projected", "--out", str(tmp_path / "ext"),
        ]) == 0
        expected = "warning: no effect on extend --strategy projected: --seed\n"
        assert capsys.readouterr().err == expected


class TestWeights:
    @pytest.mark.parametrize("weight", ["nan", "inf"])
    @pytest.mark.parametrize("method", ["concat", "latent"])
    def test_non_finite_weight_names_the_set(self, toy_files, capsys, method, weight):
        tmp_path, paths = toy_files
        rc = main([
            "build", "--sets", *set_args(paths, {"beta": weight}), "--method", method,
            "--out", str(tmp_path / "x"), *(["--dim", "2"] if method == "latent" else []),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: weight for set 'beta' must be positive and finite, got {weight}\n"
        assert not (tmp_path / "x" / f"{method}.txt").exists()

    def test_non_finite_sweep_value_names_the_set(self, toy_files, capsys):
        tmp_path, paths = toy_files
        dev = tmp_path / "dev.txt"
        dev.write_text("w00 w01 9\nw02 w03 5\n", encoding="utf-8")
        rc = main([
            "sweep", "--sets", *set_args(paths, {"alpha": 8}), "--param", "weight",
            "--values", "2,nan", "--method", "concat", "--dev", str(dev),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "weight for set 'alpha' must be positive and finite, got nan" in captured.err
        assert captured.out == ""

    def test_weight_sweep_needs_a_marked_set(self, tmp_path, capsys):
        # fails before loading: neither the sets nor the dev file exist
        rc = main([
            "sweep", "--sets", "a=missing_a.txt", "b=missing_b.txt:1", "--param", "weight",
            "--values", "1,2,4", "--method", "concat", "--dev", str(tmp_path / "dev.txt"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "non-unit weight" in err
        assert "missing" not in err


class TestSidecars:
    @pytest.mark.parametrize("method", ["concat", "svd", "latent"])
    def test_untrained_methods_record_no_seed(self, toy_files, method):
        tmp_path, paths = toy_files
        out_dir = tmp_path / method
        assert main([
            "build", "--sets", *set_args(paths), "--method", method, "--dim", "3",
            "--out", str(out_dir),
        ]) == 0
        sidecar = json.loads((out_dir / f"{method}.json").read_text())
        assert "seed" not in sidecar
        assert {"method", "dim", "words", "sets"} <= set(sidecar)

    @pytest.mark.parametrize("method, recorded", [
        ("svd", {"name", "path", "weight", "column_normalize"}),
        ("latent", {"name", "path", "weight"}),
        ("latent_union", {"name", "path", "weight"}),
    ])
    def test_records_only_the_set_fields_read(self, toy_files, capsys, method, recorded):
        tmp_path, paths = toy_files
        out_dir = tmp_path / method
        assert main([
            "build", "--sets", f"alpha={paths['alpha']}:2:colnorm", f"beta={paths['beta']}",
            "--method", method, "--dim", "3", "--epochs", "1", "--out", str(out_dir),
        ]) == 0
        sets = json.loads((out_dir / f"{method}.json").read_text())["sets"]
        assert [set(s) for s in sets] == [recorded, recorded]
        assert sets[0]["weight"] == 2.0
        assert sets[0].get("column_normalize", True) is True

    def test_latent_union_records_its_fit_and_no_setting(self, toy_files):
        tmp_path, paths = toy_files
        out_dir = tmp_path / "union"
        assert main([
            "build", "--sets", *set_args(paths), "--method", "latent_union", "--dim", "2",
            "--out", str(out_dir),
        ]) == 0
        sidecar = json.loads((out_dir / "latent_union.json").read_text())
        assert set(sidecar) == {
            "method", "dim", "words", "sets", "final_loss", "epochs_run", "start",
        }
        assert (sidecar["epochs_run"], sidecar["start"]) == (0, "shared")

    def test_extend_keeps_its_seed(self, toy_files):
        tmp_path, paths = toy_files
        out_dir = tmp_path / "ext"
        assert main([
            "extend", "--sets", *set_args(paths), "--strategy", "random", "--seed", "4",
            "--out", str(out_dir),
        ]) == 0
        assert json.loads((out_dir / "extend.json").read_text()) == {
            "strategy": "random", "seed": 4,
        }
        # recorded for every strategy, although only random reads it
        assert main([
            "extend", "--sets", *set_args(paths), "--seed", "9", "--out", str(out_dir),
        ]) == 0
        assert json.loads((out_dir / "extend.json").read_text()) == {
            "strategy": "projected", "seed": 9,
        }


class TestReads:
    """Each method, strategy and info reads its listed options; others are warned."""

    def test_every_method_and_strategy_has_a_row(self):
        from metaembed.cli import _READS
        from metaembed.ensemble import METHODS
        from metaembed.oov import STRATEGIES

        assert set(_READS) == {*METHODS, *STRATEGIES, "info"}

    def test_unread_setting_is_not_validated(self, ab_files, capsys):
        tmp_path, paths = ab_files
        rc = main([
            "build", "--sets", *set_args(paths), "--method", "svd", "--dim", "3",
            "--epochs", "0", "--out", str(tmp_path / "svd"),
        ])
        assert rc == 0
        assert capsys.readouterr().err == "warning: no effect on build --method svd: --epochs\n"
        assert load_embedding_set(tmp_path / "svd" / "svd.txt").dim == 3

    @pytest.mark.parametrize("command, suffix, flags, named", [
        (["extend", "--strategy", "random"], "", ["--l2", "-1"], "--l2"),
        (["extend", "--strategy", "projected"], "", ["--seed", "9"], "--seed"),
        (["extend", "--strategy", "average"], ":8:colnorm", [],
         "the weight of set 'a', the colnorm of set 'a'"),
        (["build", "--method", "latent", "--dim", "3"], ":1:colnorm", [],
         "the colnorm of set 'a'"),
    ], ids=["random-l2", "projected-seed", "average-set-fields", "latent-colnorm"])
    def test_unread_option_changes_no_vectors(self, ab_files, capsys, command, suffix, flags,
                                              named):
        tmp_path, paths = ab_files
        for out, given in (("with", True), ("without", False)):
            assert main([
                *command, "--sets", f"a={paths['a']}{suffix if given else ''}", f"b={paths['b']}",
                "--out", str(tmp_path / out), *(flags if given else []),
            ]) == 0
        what = " ".join(command[:3])
        assert capsys.readouterr().err == f"warning: no effect on {what}: {named}\n"
        assert outputs(tmp_path / "with") == outputs(tmp_path / "without")

    def test_info_reads_no_weight(self, ab_files, capsys):
        _, paths = ab_files
        assert main(["info", "--sets", f"a={paths['a']}:8", f"b={paths['b']}"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: no effect on info: the weight of set 'a'\n"
        assert "union: 30 words" in captured.out

    def test_help_names_the_readers(self, capsys):
        with pytest.raises(SystemExit):
            main(["extend", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--l2 L2_WEIGHT read by projected" in help_text
        assert "--seed SEED read by random" in help_text
        assert "--epochs EPOCHS read by nothing (no effect)" in help_text
        assert "--lr" not in help_text


class TestTrainingSettings:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_projection_l2_is_an_error(self, ab_files, capsys, value):
        tmp_path, paths = ab_files
        rc = main([
            "extend", "--sets", *set_args(paths), "--l2", value, "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: l2_weight must be >= 0 and finite, got {value}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dim", ["500", "8", "0", "-2"])
    def test_union_dim_is_bounded(self, toy_files, capsys, dim):
        # 12 union words and 3 + 4 summed dims bound dim at 7
        tmp_path, paths = toy_files
        rc = main([
            "build", "--sets", *set_args(paths), "--method", "latent_union", "--dim", dim,
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: dim must be in [1, 7], the smaller of the union's words and the sets' "
            f"summed dims; got {dim} (--dim defaults to 200)\n"
        )
        assert not (tmp_path / "x").exists()


class TestLoadCache:
    def test_cold_and_warm_runs_are_byte_identical(self, tmp_path, monkeypatch):
        import metaembed.io as io

        rng = np.random.default_rng(7)
        words = [f"w{i:03d}" for i in range(400)]
        sets = []
        for name, vocab, dim in (("a", words, 30), ("b", words[40:], 25), ("c", words[:350], 20)):
            emb = EmbeddingSet(name, vocab, rng.normal(size=(len(vocab), dim)))
            save_embedding_set(emb, tmp_path / f"{name}.txt")
            sets.append(f"{name}={tmp_path / name}.txt:1.5:colnorm")
        dev = tmp_path / "dev.txt"
        dev.write_text("".join(f"w{i:03d} w{i + 50:03d} {i % 7}\n" for i in range(40, 340, 9)),
                       encoding="utf-8")

        def drop_sidecars(directory):
            for hidden in directory.glob(".*.txt.*"):
                hidden.unlink()

        parsed = []
        parse = io._parse
        monkeypatch.setattr(io, "_parse", lambda path: parsed.append(path.name) or parse(path))

        def run(out_dir, cold):
            if cold:  # the saves above, and build, wrote sidecars: parse every load
                drop_sidecars(tmp_path)
            assert main(["build", "--sets", *sets, "--method", "svd", "--dim", "16",
                         "--out", str(out_dir)]) == 0
            if cold:
                drop_sidecars(out_dir)
            assert main(["eval-sim", "--emb", str(out_dir / "svd.txt"), "--datasets", str(dev),
                         "--out", str(out_dir / "sim.csv")]) == 0
            return {p.name: p.read_bytes() for p in out_dir.iterdir() if not p.name.startswith(".")}

        cold = run(tmp_path / "cold", cold=True)
        assert set(cold) == {"svd.txt", "svd.json", "sim.csv"}
        assert parsed == ["a.txt", "b.txt", "c.txt", "svd.txt"]
        parsed.clear()
        warm = run(tmp_path / "warm", cold=False)
        assert warm == cold
        # the inputs came from their sidecars, and the new svd.txt from those its save wrote
        assert parsed == []
        assert main(["eval-sim", "--emb", str(tmp_path / "cold" / "svd.txt"), "--datasets",
                     str(dev), "--out", str(tmp_path / "warm.csv")]) == 0
        assert parsed == []
        assert (tmp_path / "warm.csv").read_bytes() == cold["sim.csv"]


class TestPeakMemory:
    """Each command's tracemalloc peak stays under a line through two sizes.

    Five sets of dims 10/20/40/60/60 each keep 80% of a pool of 400 or 1,600
    words.  The unit is the command's largest unavoidable float64 array:
    shared x sum(d) for ``svd``, union x sum(d) for the others.  Fixed costs
    dominate at these sizes, so the bound is the line through the two peaks
    measured in a fresh process (unit, peak in bytes), raised by 25%."""

    DIMS = (10, 20, 40, 60, 60)

    def sets(self, root, pool):
        """The --sets arguments of five saved sets, and their shared and
        union vocabulary sizes; saving writes the sidecars, which the loads
        map, as the benchmark's timed runs do."""
        rng = np.random.default_rng(0)
        words = [f"w{i:05d}" for i in range(pool)]
        z = rng.standard_normal((pool, 30))
        specs, kept = [], []
        for i, d in enumerate(self.DIMS):
            keep = np.sort(rng.choice(pool, int(0.8 * pool), replace=False))
            matrix = z[keep] @ rng.standard_normal((30, d)) + 0.1 * rng.standard_normal((len(keep), d))
            save_embedding_set(EmbeddingSet(f"s{i}", [words[j] for j in keep], matrix), root / f"s{i}.txt")
            specs.append(f"s{i}={root / f's{i}.txt'}")
            kept.append(set(keep.tolist()))
        return specs, len(set.intersection(*kept)), len(set.union(*kept))

    @pytest.mark.parametrize("argv, unit, measured", [
        (["build", "--method", "svd", "--dim", "10"], "shared",
         ((191_520, 942_603), (825_360, 2_898_279))),
        (["build", "--method", "latent_union", "--dim", "10"], "union",
         ((608_000, 1_930_410), (2_430_480, 7_461_889))),
        (["extend", "--strategy", "projected"], "union",
         ((608_000, 1_851_731), (2_430_480, 4_813_591))),
    ], ids=["svd", "latent_union", "extend"])
    def test_peak_is_bounded_at_two_sizes(self, tmp_path, argv, unit, measured):
        (u1, p1), (u2, p2) = measured
        slope = (p2 - p1) / (u2 - u1)
        for pool in (400, 1600):
            root = tmp_path / str(pool)
            root.mkdir()
            specs, shared, union = self.sets(root, pool)
            size = (shared if unit == "shared" else union) * sum(self.DIMS) * 8
            tracemalloc.start()
            try:
                assert main([*argv, "--sets", *specs, "--out", str(root / "out")]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * (slope * size + p1 - slope * u1), (pool, size)
