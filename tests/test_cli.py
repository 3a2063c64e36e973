"""CLI subcommands end to end on temporary directories."""

import argparse
import ast
import json
from dataclasses import fields
from pathlib import Path

import pytest

from casevec import cli
from casevec.cli import build_parser, main
from casevec.encoder import load_arrays, save_arrays
from casevec.training import TrainConfig


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def registered_dests(command):
    """The dests of the option flags that ``command``'s parser registers:
    each has no parser default, so only a flag given sets it."""
    sub = next(a for a in build_parser()._actions if a.choices and command in a.choices)
    return {a.dest for a in sub.choices[command]._actions
            if a.default is argparse.SUPPRESS and a.dest != "help"}


@pytest.fixture
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    assert run_cli(
        "gen-corpus", "--out", str(out),
        "--num-articles", "2", "--branches-per-article", "2",
        "--cases-per-branch", "4", "--queries-per-branch", "1",
        "--vocab-size", "40", "--seed", "11",
    ) == 0
    return out


class TestPipeline:
    def test_full_pipeline(self, tmp_path, corpus_dir):
        weights = tmp_path / "weights.csv"
        assert run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                       "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(weights)) == 0
        assert weights.exists()

        batches = tmp_path / "batches.jsonl"
        assert run_cli("sample", "--weights", str(weights), "--out", str(batches),
                       "--num-batches", "3", "--batch-quadruples", "2", "--seed", "5") == 0
        lines = [json.loads(l) for l in batches.read_text().splitlines()]
        assert len(lines) == 3
        assert all(len(l["case_ids"]) == 4 for l in lines)

        run_dir = tmp_path / "run"
        assert run_cli("pretrain", "--articles", str(corpus_dir / "articles.json"),
                       "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(run_dir),
                       "--steps", "5", "--hidden-size", "16", "--num-layers", "1",
                       "--num-heads", "2", "--ffn-size", "24", "--max-len", "64",
                       "--seed", "3") == 0
        assert (run_dir / "encoder.params").exists()
        assert (run_dir / "vocab.txt").exists()
        assert len((run_dir / "trainlog.jsonl").read_text().splitlines()) == 5

        run_tsv = tmp_path / "run.tsv"
        assert run_cli("rank", "--checkpoint", str(run_dir / "encoder.params"),
                       "--vocab", str(run_dir / "vocab.txt"),
                       "--queries", str(corpus_dir / "queries.jsonl"),
                       "--cases", str(corpus_dir / "cases.jsonl"),
                       "--out", str(run_tsv)) == 0

        metrics = tmp_path / "metrics.json"
        assert run_cli("evaluate", "--run", str(run_tsv),
                       "--qrels", str(corpus_dir / "qrels.tsv"),
                       "--out", str(metrics), "--ks", "5,10") == 0
        loaded = json.loads(metrics.read_text())
        assert set(loaded) == {"ndcg@5", "ndcg@10"}

        emb = tmp_path / "emb.csv"
        assert run_cli("export-embeddings", "--checkpoint", str(run_dir / "encoder.params"),
                       "--vocab", str(run_dir / "vocab.txt"),
                       "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(emb)) == 0
        header = emb.read_text().splitlines()[0]
        assert header.startswith("case_id,label,dim0")

        emb2d = tmp_path / "emb2d.csv"
        assert run_cli("export-embeddings", "--checkpoint", str(run_dir / "encoder.params"),
                       "--vocab", str(run_dir / "vocab.txt"),
                       "--cases", str(corpus_dir / "cases.jsonl"),
                       "--labels", str(corpus_dir / "labels.csv"),
                       "--out", str(emb2d), "--projection", "pca2d") == 0
        assert emb2d.read_text().splitlines()[0] == "case_id,label,x,y"

    def test_every_writer_creates_the_directories_of_its_out(self, tmp_path, corpus_dir,
                                                             capsys):
        """Each of the eight commands writes its outputs, in new directories,
        echoes every option it registers next to them and prints one line."""
        def out(command, name):
            return tmp_path / command / "new" / "sub" / name

        run_dir = out("pretrain", "run")
        encoder = ["--checkpoint", str(run_dir / "encoder.params"),
                   "--vocab", str(run_dir / "vocab.txt")]
        corpus = {name: str(corpus_dir / name)
                  for name in ("articles.json", "cases.jsonl", "queries.jsonl", "qrels.tsv")}
        commands = [
            ("gen-corpus", "corpus", ["--cases-per-branch", "2", "--queries-per-branch", "1"]),
            ("pretrain", "run", ["--articles", corpus["articles.json"],
                                 "--cases", corpus["cases.jsonl"], *PRETRAIN_SMALL]),
            ("expand-articles", "branches.jsonl", ["--articles", corpus["articles.json"]]),
            ("weights", "weights.csv",
             ["--articles", corpus["articles.json"], "--cases", corpus["cases.jsonl"]]),
            ("sample", "batches.jsonl", ["--weights", str(out("weights", "weights.csv"))]),
            ("rank", "run.tsv",
             encoder + ["--queries", corpus["queries.jsonl"], "--cases", corpus["cases.jsonl"]]),
            ("evaluate", "metrics.json",
             ["--run", str(out("rank", "run.tsv")), "--qrels", corpus["qrels.tsv"]]),
            ("export-embeddings", "emb.csv", encoder + ["--cases", corpus["cases.jsonl"]]),
        ]
        capsys.readouterr()
        for command, name, argv in commands:
            path = out(command, name)
            assert run_cli(command, *argv, "--out", str(path)) == 0, command
            if path.is_dir():  # the echo and at least one output
                echo_dir = path
                assert len(list(path.iterdir())) > 1, command
            else:
                echo_dir = path.parent
                assert path.stat().st_size > 0, command
            echo = json.loads((echo_dir / f"{command}.config.json").read_text())
            assert echo["command"] == command
            assert set(echo["options"]) == registered_dests(command), command
            assert len(capsys.readouterr().out.splitlines()) == 1, command

    def test_expand_articles(self, tmp_path, corpus_dir):
        out = tmp_path / "branches.jsonl"
        assert run_cli("expand-articles", "--articles", str(corpus_dir / "articles.json"),
                       "--out", str(out)) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 4
        assert {l["article_id"] for l in lines} == {"art-00", "art-01"}

    def test_config_echo_written(self, tmp_path, corpus_dir):
        weights = tmp_path / "w.csv"
        run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(weights))
        echo = json.loads((tmp_path / "weights.config.json").read_text())
        assert echo["command"] == "weights"
        assert echo["options"]["k1"] == 1.5


class TestDeterminism:
    def test_identical_seeds_give_identical_bytes(self, tmp_path):
        outputs = []
        for name in ("first", "second"):
            base = tmp_path / name
            corpus = base / "corpus"
            run_cli("gen-corpus", "--out", str(corpus), "--cases-per-branch", "3",
                    "--queries-per-branch", "1", "--seed", "9")
            weights = base / "weights.csv"
            run_cli("weights", "--articles", str(corpus / "articles.json"),
                    "--cases", str(corpus / "cases.jsonl"), "--out", str(weights))
            batches = base / "batches.jsonl"
            run_cli("sample", "--weights", str(weights), "--out", str(batches),
                    "--num-batches", "2", "--batch-quadruples", "2", "--seed", "4")
            outputs.append((read(weights), read(batches), read(corpus / "cases.jsonl")))
        assert outputs[0] == outputs[1]


class TestEvaluateCommand:
    def test_ideal_run_scores_one(self, tmp_path):
        run_tsv = tmp_path / "run.tsv"
        run_tsv.write_text("q1\t1\ta\t0.9\nq1\t2\tb\t0.5\n")
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("q1\ta\t3\nq1\tb\t1\n")
        metrics = tmp_path / "metrics.json"
        assert run_cli("evaluate", "--run", str(run_tsv), "--qrels", str(qrels),
                       "--out", str(metrics)) == 0
        loaded = json.loads(metrics.read_text())
        assert all(loaded[k]["mean"] == 1.0 for k in loaded)


class TestWeightsCommand:
    def test_disjoint_article_cases_weigh_zero(self, tmp_path):
        articles = tmp_path / "articles.json"
        articles.write_text(json.dumps({"articles": [
            {"article_id": "a", "acts": [[["red fox"]]]},
            {"article_id": "b", "acts": [[["blue owl"]]]},
        ]}))
        cases = tmp_path / "cases.jsonl"
        cases.write_text(
            '{"case_id": "c1", "facts": "f", "holding": "red fox", "articles": ["a"]}\n'
            '{"case_id": "c2", "facts": "f", "holding": "blue owl", "articles": ["b"]}\n'
        )
        out = tmp_path / "w.csv"
        assert run_cli("weights", "--articles", str(articles), "--cases", str(cases),
                       "--out", str(out)) == 0
        rows = out.read_text().splitlines()
        assert "c1,c2,0.0" in rows
        assert "c1,c1,1.0" in rows


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path, corpus_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k1": 2.0}')
        out = tmp_path / "w.csv"

        run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(out))
        assert json.loads((tmp_path / "weights.config.json").read_text())["options"]["k1"] == 1.5

        run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(out),
                "--config", str(cfg))
        assert json.loads((tmp_path / "weights.config.json").read_text())["options"]["k1"] == 2.0

        run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(out),
                "--config", str(cfg), "--k1", "3.0")
        assert json.loads((tmp_path / "weights.config.json").read_text())["options"]["k1"] == 3.0

    def test_unknown_config_key_rejected(self, tmp_path, corpus_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"zap": 1}')
        code = run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                       "--cases", str(corpus_dir / "cases.jsonl"),
                       "--out", str(tmp_path / "w.csv"), "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestConfigFileValues:
    """A --config value must be one the option's flag could have produced."""

    def weights(self, corpus_dir, tmp_path, cfg):
        return run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                       "--cases", str(corpus_dir / "cases.jsonl"),
                       "--out", str(tmp_path / "w.csv"), "--config", str(cfg))

    @pytest.mark.parametrize("text, detail", [
        ('{"k1": "2"}', "'k1' must be a number, got \"2\""),
        ('{"b": true}', "'b' must be a number, got true"),
        ('{"no_lowercase": false}', "unknown config keys ['no_lowercase']"),
        ('{"lowercase": 0}', "'lowercase' must be true or false, got 0"),
        ('{"tokenizer_mode": null}', "'tokenizer_mode' must be a string, got null"),
        ("k1 = 2", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[1]", "must hold a JSON object of option values"),
    ], ids=["string-for-float", "bool-for-float", "flag-name", "int-for-switch",
            "null-for-string", "not-json", "not-an-object"])
    def test_bad_value_exits_2_naming_the_file(self, tmp_path, corpus_dir, capsys,
                                               text, detail):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert self.weights(corpus_dir, tmp_path, cfg) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {detail}\n"

    @pytest.mark.parametrize("command, text, detail", [
        ("pretrain", '{"steps": "3"}', "'steps' must be an integer, got \"3\""),
        ("pretrain", '{"hidden_size": 16.0}', "'hidden_size' must be an integer, got 16.0"),
        ("gen-corpus", '{"facts_len": [20]}',
         "'facts_len' must be a list of 2 values, each an integer, got [20]"),
        ("gen-corpus", '{"facts_len": [20, 30.0]}',
         "'facts_len' must be a list of 2 values, each an integer, got [20, 30.0]"),
    ])
    def test_bad_value_of_other_commands(self, tmp_path, corpus_dir, capsys,
                                         command, text, detail):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        inputs = {"pretrain": ["--articles", str(corpus_dir / "articles.json"),
                               "--cases", str(corpus_dir / "cases.jsonl")],
                  "gen-corpus": []}[command]
        assert run_cli(command, *inputs, "--out", str(tmp_path / "out"),
                       "--config", str(cfg)) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {detail}\n"
        assert not (tmp_path / "out").exists()

    def test_accepted_values_are_echoed_unchanged(self, tmp_path, corpus_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k1": 2, "b": 0.5, "lowercase": false}')
        assert self.weights(corpus_dir, tmp_path, cfg) == 0
        options = json.loads((tmp_path / "weights.config.json").read_text())["options"]
        assert (options["k1"], options["b"], options["lowercase"]) == (2, 0.5, False)
        assert type(options["k1"]) is int

        cfg.write_text('{"facts_len": [20, 30], "seed": 4}')
        assert run_cli("gen-corpus", "--out", str(tmp_path / "c"), "--config", str(cfg)) == 0
        options = json.loads((tmp_path / "c" / "gen-corpus.config.json").read_text())["options"]
        assert (options["facts_len"], options["seed"]) == ([20, 30], 4)


PRETRAIN_SMALL = ("--hidden-size", "16", "--num-layers", "1", "--num-heads", "2",
                  "--ffn-size", "24", "--max-len", "64", "--seed", "3")


def pretrain(corpus_dir, out, *extra):
    return run_cli("pretrain", "--articles", str(corpus_dir / "articles.json"),
                   "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(out),
                   *PRETRAIN_SMALL, *extra)


class TestPretrainWithoutSteps:
    def test_zero_steps_exits_2(self, tmp_path, corpus_dir, capsys):
        assert pretrain(corpus_dir, tmp_path / "run", "--steps", "0") == 2
        err = capsys.readouterr().err
        assert "--steps" in err
        assert "Traceback" not in err

    def test_resume_at_final_step_exits_2(self, tmp_path, corpus_dir, capsys):
        run_dir = tmp_path / "run"
        assert pretrain(corpus_dir, run_dir, "--steps", "2") == 0
        ckpt = run_dir / "checkpoints" / "step-000002.ckpt"
        assert ckpt.exists()
        capsys.readouterr()
        code = pretrain(corpus_dir, tmp_path / "again", "--steps", "2",
                             "--resume", str(ckpt))
        assert code == 2
        err = capsys.readouterr().err
        assert "--steps 2" in err
        assert "already at step 2" in err


class TestPretrainSettings:
    @pytest.mark.parametrize("flag, value, detail", [
        ("--mix", "nan", "mix must be finite, got nan"),
        ("--gamma", "nan", "gamma must be finite, got nan"),
        ("--optimum-pos", "inf", "optimum_pos must be finite, got inf"),
        ("--class-threshold", "inf", "class_threshold must be finite, got inf"),
        ("--learning-rate", "nan", "learning_rate must be finite, got nan"),
        ("--grad-clip", "nan", "grad_clip must be finite, got nan"),
        ("--grad-clip", "-1", "grad_clip must not be negative, got -1.0"),
        ("--positive-floor", "inf", "positive_floor must be finite, got inf"),
        ("--mask-rate", "3", "mask_rate must be in [0, 1], got 3.0"),
        ("--mask-rate", "-0.1", "mask_rate must be in [0, 1], got -0.1"),
        ("--checkpoint-every", "-1", "checkpoint_every must not be negative, got -1"),
    ])
    def test_bad_setting_exits_2_before_any_step(self, tmp_path, corpus_dir, capsys,
                                                 flag, value, detail):
        run_dir = tmp_path / "run"
        assert pretrain(corpus_dir, run_dir, "--steps", "2", flag, value) == 2
        assert capsys.readouterr().err == f"error: {detail}\n"
        assert not run_dir.exists()

    def test_every_train_config_field_is_set_by_pretrain(self, tmp_path, monkeypatch):
        """Each ``TrainConfig`` field is bound to a ``pretrain`` option or
        set by the command itself, so no field keeps a value no caller sets."""
        bound = {opt.field for opt in cli._PRETRAIN_OPTS if opt.config is TrainConfig}
        explicit = {}
        build = cli._build

        class Built(Exception):
            pass

        def spy(config, args, opts, **given):
            if config is TrainConfig:
                explicit.update(given)
                raise Built
            return build(config, args, opts, **given)

        monkeypatch.setattr(cli, "_build", spy)
        with pytest.raises(Built):
            run_cli("pretrain", "--articles", "a.json", "--cases", "c.jsonl",
                    "--out", str(tmp_path / "run"))
        assert sorted(explicit) == ["checkpoint_dir"]
        assert {f.name for f in fields(TrainConfig)} == bound | set(explicit)


class TestNonFiniteSettings:
    def test_weights_k1_must_be_finite(self, tmp_path, corpus_dir, capsys):
        for value in ("nan", "inf"):
            assert run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                           "--cases", str(corpus_dir / "cases.jsonl"),
                           "--out", str(tmp_path / "w.csv"), "--k1", value) == 2
            assert capsys.readouterr().err == (
                f"error: k1 must be positive and finite, got {value}\n")
        assert not (tmp_path / "w.csv").exists()

    def test_sample_class_threshold_must_be_finite(self, tmp_path, corpus_dir, capsys):
        weights = tmp_path / "w.csv"
        assert run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                       "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(weights)) == 0
        capsys.readouterr()
        assert run_cli("sample", "--weights", str(weights), "--out", str(tmp_path / "b.jsonl"),
                       "--batch-quadruples", "2", "--class-threshold", "nan") == 2
        assert capsys.readouterr().err == "error: class_threshold must be finite, got nan\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_sample_positive_floor_must_be_finite(self, tmp_path, corpus_dir, capsys, value):
        weights = tmp_path / "w.csv"
        assert run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                       "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(weights)) == 0
        capsys.readouterr()
        assert run_cli("sample", "--weights", str(weights), "--out", str(tmp_path / "b.jsonl"),
                       "--batch-quadruples", "2", "--positive-floor", value) == 2
        assert capsys.readouterr().err == f"error: positive_floor must be finite, got {value}\n"

    def test_failed_sample_leaves_existing_manifest(self, tmp_path, corpus_dir, capsys):
        weights = tmp_path / "w.csv"
        assert run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                       "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(weights)) == 0
        manifest = tmp_path / "b.jsonl"
        manifest.write_text("existing")
        capsys.readouterr()
        assert run_cli("sample", "--weights", str(weights), "--out", str(manifest),
                       "--batch-quadruples", "100") == 2
        assert "cannot draw 100 anchors" in capsys.readouterr().err
        assert manifest.read_text() == "existing"


class TestFailedCommand:
    """A command that fails exits 2 with one ``error:`` line, prints no
    summary and leaves its --out directory empty: no output and no echo."""

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--weights", "WEIGHTS", "--num-batches", "0"],
         "--num-batches must be at least 1, got 0"),
        (["weights", "--articles", "ARTICLES", "--cases", "CASES", "--config", "CONFIG"],
         "CONFIG: unknown config keys ['zap']"),
        (["pretrain", "--articles", "ARTICLES", "--cases", "CASES", *PRETRAIN_SMALL,
          "--steps", "0"], "--steps must be at least 1, got 0"),
    ], ids=["sample-zero-batches", "weights-unknown-config-key", "pretrain-zero-steps"])
    def test_exits_2_with_one_error_line_and_no_echo(self, tmp_path, corpus_dir, capsys,
                                                     argv, message):
        weights = tmp_path / "table" / "w.csv"
        assert run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                       "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(weights)) == 0
        config = tmp_path / "cfg.json"
        config.write_text('{"zap": 1}')
        paths = {"WEIGHTS": str(weights), "ARTICLES": str(corpus_dir / "articles.json"),
                 "CASES": str(corpus_dir / "cases.jsonl"), "CONFIG": str(config)}
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run_cli(*[paths.get(arg, arg) for arg in argv], "--out", str(out / "result")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.replace('CONFIG', str(config))}\n"
        assert list(out.iterdir()) == []


def test_only_cli_main_prints():
    """Every ``print`` of the package is in ``cli.main``, which prints a
    command's summary line or its error."""
    package = Path(cli.__file__).parent
    outside, in_main = [], 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed = set()
        if path.name == "cli.py":
            main_def = next(node for node in tree.body
                            if isinstance(node, ast.FunctionDef) and node.name == "main")
            allowed = {id(node) for node in ast.walk(main_def)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "print":
                if id(node) in allowed:
                    in_main += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert in_main == 2


def test_only_files_words_a_repeated_key():
    """A key a file may hold once is checked by ``files.claim`` alone, so
    the text of its message is in ``files.py`` and in no other module."""
    package = Path(cli.__file__).parent
    holders = [path.name for path in sorted(package.glob("*.py"))
               if "repeats line" in path.read_text(encoding="utf-8")]
    assert holders == ["files.py"]


class TestCountsBelowMinimum:
    """A count option below its minimum exits 2 before any output is
    opened; an existing output keeps its bytes."""

    @pytest.mark.parametrize("argv, out, message", [
        (["sample", "--weights", "WEIGHTS", "--num-batches", "-1"], "b.jsonl",
         "--num-batches must be at least 1, got -1"),
        (["sample", "--weights", "WEIGHTS", "--num-batches", "0"], "b.jsonl",
         "--num-batches must be at least 1, got 0"),
        (["gen-corpus", "--queries-per-branch", "-1"], "new-corpus",
         "queries_per_branch must not be negative, got -1"),
    ], ids=["sample-negative-batches", "sample-zero-batches", "gen-corpus-negative-queries"])
    def test_exits_2_and_leaves_output_alone(self, tmp_path, corpus_dir, capsys, argv, out,
                                             message):
        weights = tmp_path / "w.csv"
        assert run_cli("weights", "--articles", str(corpus_dir / "articles.json"),
                       "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(weights)) == 0
        existing = tmp_path / "b.jsonl"
        existing.write_text("existing")
        capsys.readouterr()
        argv = [str(weights) if arg == "WEIGHTS" else arg for arg in argv]
        assert run_cli(*argv, "--out", str(tmp_path / out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert existing.read_text() == "existing"
        assert not (tmp_path / "new-corpus").exists()


MODEL = ("--checkpoint", "PARAMS", "--vocab", "VOCAB")


class TestEmptyInputs:
    """A case or query file that holds nothing ends in exit 2 naming it,
    before any output is written."""

    @pytest.mark.parametrize("argv, message", [
        (["weights", "--articles", "ARTICLES", "--cases", "EMPTY"], "holds no case"),
        (["pretrain", "--articles", "ARTICLES", "--cases", "EMPTY", *PRETRAIN_SMALL],
         "holds no case"),
        (["export-embeddings", *MODEL, "--cases", "EMPTY"], "holds no case"),
        (["rank", *MODEL, "--queries", "QUERIES", "--cases", "EMPTY"], "holds no case"),
        (["rank", *MODEL, "--queries", "EMPTY", "--cases", "CASES"], "holds no query"),
    ], ids=["weights", "pretrain", "export-embeddings", "rank-cases", "rank-queries"])
    def test_empty_file_exits_2_naming_it(self, tmp_path, corpus_dir, capsys, argv, message):
        model = tmp_path / "run"
        if "PARAMS" in argv:
            assert pretrain(corpus_dir, model, "--steps", "1") == 0
            capsys.readouterr()
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        paths = {"ARTICLES": corpus_dir / "articles.json", "CASES": corpus_dir / "cases.jsonl",
                 "QUERIES": corpus_dir / "queries.jsonl", "EMPTY": empty,
                 "PARAMS": model / "encoder.params", "VOCAB": model / "vocab.txt"}
        out = tmp_path / "out"
        argv = [str(paths.get(arg, arg)) for arg in argv]
        assert run_cli(*argv, "--out", str(out / "result")) == 2
        assert capsys.readouterr().err == f"error: {empty}: {message}\n"
        assert not out.exists()


FIRST_CASE = "case-art-00-b0-000"  # first line of the corpus_dir case file
SECOND_CASE = "case-art-00-b0-001"


def _cases_text(corpus_dir, edit):
    lines = (corpus_dir / "cases.jsonl").read_text().splitlines()
    return "\n".join(edit(lines)) + "\n"


def _with(line, **fields):
    return json.dumps({**json.loads(line), **fields})


def _articles_text(corpus_dir, edit):
    doc = json.loads((corpus_dir / "articles.json").read_text())
    return json.dumps({"articles": edit(doc["articles"])})


def _first_case_with(corpus_dir, **fields):
    return _with((corpus_dir / "cases.jsonl").read_text().splitlines()[0], **fields) + "\n"


def _damaged_params(corpus_dir, edit):
    """The trained model's params store after ``edit(arrays)``, as bytes."""
    arrays, meta = load_arrays(str(corpus_dir.parent / "run" / "encoder.params"))
    edit(arrays)
    out = corpus_dir.parent / "damaged.params"
    save_arrays(str(out), arrays, meta)
    return out.read_bytes()


class TestMalformedFiles:
    """A file with a bad line or row ends in exit 2 with a message that
    starts with its path, and a bad option value with one that names the
    option, before any output is written."""

    @pytest.mark.parametrize("argv, text, message", [
        (["weights", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _cases_text(d, lambda ls: ls[:2] + ["[1]"]), ":3: expected a JSON object"),
        (["rank", *MODEL, "--queries", "BAD", "--cases", "CASES"],
         lambda d: '"x"\n', ":1: expected a JSON object"),
        (["rank", *MODEL, "--queries", "BAD", "--cases", "CASES"],
         lambda d: '{"query_id": "q", "facts": 5}\n', ":1: query_id and facts must be strings"),
        (["weights", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _first_case_with(d, articles="art-00"),
         ":1: articles must be a list of strings"),
        (["weights", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _first_case_with(d, facts=5),
         ":1: case_id, facts, holding and decision must be strings"),
        (["export-embeddings", *MODEL, "--cases", "BAD"],
         lambda d: _cases_text(d, lambda ls: ls[:2] + ls[:1]),
         f":3: case_id '{FIRST_CASE}' repeats line 1"),
        (["weights", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _cases_text(d, lambda ls: ls[:1] + ls[:1]),
         f":2: case_id '{FIRST_CASE}' repeats line 1"),
        (["sample", "--weights", "BAD"],
         lambda d: "source_id,target_id,value\n", ": holds no weight"),
        (["evaluate", "--run", "RUN", "--qrels", "BAD"],
         lambda d: "q\tc\tx\n", ":1: grade 'x' is not an integer"),
        (["evaluate", "--run", "RUN", "--qrels", "BAD"],
         lambda d: "q\tc\t2\nq\td\t-1\n", ":2: negative grade -1 for ('q', 'd')"),
        (["evaluate", "--run", "BAD", "--qrels", "QRELS"],
         lambda d: "q\t1\tc\tabc\n",
         ":1: bad row ['q', '1', 'c', 'abc']: could not convert string to float: 'abc'"),
        (["export-embeddings", *MODEL, "--cases", "CASES", "--labels", "BAD"],
         lambda d: f"case_id,label\n{FIRST_CASE},a,b\n",
         ":2: expected 2 columns, got 3"),
        (["evaluate", "--run", "BAD", "--qrels", "QRELS"],
         lambda d: "q\t1\tc\t0.5\nq\t2\tc\t0.4\n", ":2: pair ('q', 'c') repeats line 1"),
        (["evaluate", "--run", "RUN", "--qrels", "BAD"],
         lambda d: "q\tc\t2\nq\td\t1\nq\tc\t0\n",
         ":3: pair ('q', 'c') repeats line 1"),
        (["weights", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _first_case_with(d, case_id=""), ":1: case_id must be nonempty"),
        (["weights", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _first_case_with(d, facts=""), f":1: case '{FIRST_CASE}': facts must be nonempty"),
        (["rank", *MODEL, "--queries", "BAD", "--cases", "CASES"],
         lambda d: '{"query_id": "q", "facts": ""}\n', ":1: query 'q': facts must be nonempty"),
        (["evaluate", "--run", "RUN", "--qrels", "QRELS", "--ks", "10,x"],
         lambda d: "", "--ks must be comma-separated integers, got '10,x'"),
        (["export-embeddings", "--checkpoint", "BAD", "--vocab", "VOCAB", "--cases", "CASES"],
         lambda d: _damaged_params(d, lambda a: a.pop("ln_f.g")),
         ": array 'ln_f.g' is missing"),
        (["export-embeddings", "--checkpoint", "BAD", "--vocab", "VOCAB", "--cases", "CASES"],
         lambda d: _damaged_params(d, lambda a: a.update(tok_emb=a["tok_emb"][:-3])),
         ": array 'tok_emb' is float64 (47, 16), expected float64 (50, 16)"),
        (["weights", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _cases_text(d, lambda ls: ls[:1] + [_with(ls[1], articles=["art-00", "zzz"])]),
         f":2: case '{SECOND_CASE}' cites article 'zzz', which ARTICLES does not define"),
        (["pretrain", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _first_case_with(d, articles=["zzz"]),
         f":1: case '{FIRST_CASE}' cites article 'zzz', which ARTICLES does not define"),
        (["weights", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _cases_text(d, lambda ls: ls[:1] + [_with(ls[1], articles=[])]),
         f":2: case '{SECOND_CASE}' cites no article"),
        (["pretrain", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _first_case_with(d, articles=[]), f":1: case '{FIRST_CASE}' cites no article"),
        (["weights", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _cases_text(d, lambda ls: ls[:1] + [_with(ls[1], articles=["art-00", "art-00"])]),
         f":2: case '{SECOND_CASE}' cites article 'art-00' twice"),
        (["sample", "--weights", "BAD"],
         lambda d: "source_id,target_id,value\n" + "x" * 140_000 + ",x,1.0\n",
         ":2: field larger than field limit (131072)"),
        (["sample", "--weights", "BAD"],
         lambda d: "s" * 140_000 + ",target_id,value\n",
         ":1: field larger than field limit (131072)"),
        (["evaluate", "--run", "RUN", "--qrels", "BAD"],
         lambda d: "q\tc\t1\nq\t" + "c" * 140_000 + "\t2\n",
         ":2: field larger than field limit (131072)"),
        (["evaluate", "--run", "BAD", "--qrels", "QRELS"],
         lambda d: "q\t" + "1" * 140_000 + "\tc\t0.5\n",
         ":1: field larger than field limit (131072)"),
        (["export-embeddings", *MODEL, "--cases", "CASES", "--labels", "BAD"],
         lambda d: f"case_id,label\n{FIRST_CASE},a\n{SECOND_CASE}," + "x" * 140_000 + "\n",
         ":3: field larger than field limit (131072)"),
        (["weights", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _cases_text(d, lambda ls: ls[:1] + [_with(ls[1], case_id="cr\rlf")]),
         ":2: case_id 'cr\\rlf' holds a carriage return without a line feed"),
        (["export-embeddings", *MODEL, "--cases", "BAD"],
         lambda d: _first_case_with(d, case_id="end\r"),
         ":1: case_id 'end\\r' holds a carriage return without a line feed"),
        (["rank", *MODEL, "--queries", "BAD", "--cases", "CASES"],
         lambda d: '{"query_id": "q", "facts": "a"}\n{"query_id": "r", "facts": "b"}\n'
                   '{"query_id": "q", "facts": "c"}\n', ":3: query_id 'q' repeats line 1"),
        (["export-embeddings", "--checkpoint", "PARAMS", "--vocab", "BAD", "--cases", "CASES"],
         lambda d: (d.parent / "run" / "vocab.txt").read_text() + "[MASK]\n",
         ":51: token '[MASK]' repeats line 5"),
        (["rank", "--checkpoint", "PARAMS", "--vocab", "BAD", "--queries", "QUERIES",
          "--cases", "CASES"],
         lambda d: "[PAD]\n[UNK]\n[SEP]\n", ":3: expected special token '[CLS]', got '[SEP]'"),
        (["evaluate", "--run", "RUN", "--qrels", "BAD"],
         lambda d: b"q\tc\t1\nq\t\xffd\t2\n",
         ":2: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
        (["export-embeddings", *MODEL, "--cases", "BAD"],
         lambda d: _cases_text(d, lambda ls: ls[:2]).encode() + b'{"case_id": "\xff"}\n',
         ":3: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
        (["weights", "--articles", "BAD", "--cases", "CASES"],
         lambda d: b'{\n  "articles": [\xff]\n}\n',
         ":2: 'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
        (["export-embeddings", "--checkpoint", "PARAMS", "--vocab", "BAD", "--cases", "CASES"],
         lambda d: (d.parent / "run" / "vocab.txt").read_bytes() + b"\xfe\n",
         ":51: 'utf-8' codec can't decode byte 0xfe in position 0: invalid start byte"),
        (["sample", "--weights", "BAD"],
         lambda d: b"source_id,target_id,value\na,a,1.0\nb\xe9,a,0.5\n",
         ":3: 'utf-8' codec can't decode byte 0xe9 in position 1: invalid continuation byte"),
        (["weights", "--articles", "ARTICLES", "--cases", "CASES", "--config", "BAD"],
         lambda d: b'{"k1": "\xff"}\n',
         ":1: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
        (["weights", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _cases_text(d, lambda ls: ls[:1] + [_with(ls[1], holding="... !")]),
         f":2: case '{SECOND_CASE}': holding tokenizes to an empty query"),
        (["pretrain", "--articles", "ARTICLES", "--cases", "BAD"],
         lambda d: _first_case_with(d, holding=""),
         f":1: case '{FIRST_CASE}': holding tokenizes to an empty query"),
        (["expand-articles", "--articles", "BAD"],
         lambda d: _articles_text(d, lambda items: items + items[1:]),
         ": articles[2]: duplicate article_id 'art-01'"),
        (["weights", "--articles", "BAD", "--cases", "CASES"],
         lambda d: _articles_text(d, lambda items: items[:1] + items),
         ": articles[1]: duplicate article_id 'art-00'"),
    ], ids=["case-not-object", "query-not-object", "query-facts-number", "articles-string",
            "facts-number", "encode-repeated-id", "weights-repeated-id", "weights-header-only",
            "grade-not-integer", "negative-grade", "score-not-number", "labels-3-fields",
            "run-repeated-pair", "qrels-repeated-pair", "case-id-empty", "case-facts-empty",
            "query-facts-empty", "ks-not-integer", "params-without-array",
            "params-cut-array", "weights-unknown-article", "pretrain-unknown-article",
            "weights-no-article", "pretrain-no-article", "weights-repeated-article",
            "sample-field-over-limit",
            "sample-header-over-limit", "qrels-field-over-limit", "run-field-over-limit",
            "labels-field-over-limit", "weights-id-lone-cr", "encode-id-lone-cr",
            "query-repeated-id", "encode-vocab-repeated-token", "rank-vocab-missing-special",
            "qrels-not-utf8", "cases-not-utf8", "articles-not-utf8", "vocab-not-utf8",
            "weights-csv-not-utf8", "config-not-utf8", "weights-holding-no-token",
            "pretrain-holding-no-token", "expand-repeated-article-id",
            "weights-repeated-article-id"])
    def test_bad_file_exits_2_naming_it(self, tmp_path, corpus_dir, capsys, argv, text,
                                        message):
        model = tmp_path / "run"
        if {"PARAMS", "VOCAB"} & set(argv):
            assert pretrain(corpus_dir, model, "--steps", "1") == 0
            capsys.readouterr()
        bad = tmp_path / "bad.txt"
        content = text(corpus_dir)
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(content)
        run = tmp_path / "run.tsv"
        run.write_text("q\t1\tc\t0.5\n")
        paths = {"ARTICLES": corpus_dir / "articles.json", "CASES": corpus_dir / "cases.jsonl",
                 "QRELS": corpus_dir / "qrels.tsv", "QUERIES": corpus_dir / "queries.jsonl",
                 "RUN": run, "BAD": bad,
                 "PARAMS": model / "encoder.params", "VOCAB": model / "vocab.txt"}
        out = tmp_path / "out"
        named = bad if "BAD" in argv else ""
        argv = [str(paths.get(arg, arg)) for arg in argv]
        assert run_cli(*argv, "--out", str(out / "result")) == 2
        message = message.replace("ARTICLES", str(paths["ARTICLES"]))
        assert capsys.readouterr().err == f"error: {named}{message}\n"
        assert not out.exists()

    def test_candidates_may_cite_no_article(self, tmp_path, corpus_dir):
        """Only a weight table needs articles: ``export-embeddings`` takes a
        case without one."""
        assert pretrain(corpus_dir, tmp_path / "run", "--steps", "1") == 0
        cases = tmp_path / "cases.jsonl"
        cases.write_text(_first_case_with(corpus_dir, articles=[]))
        assert run_cli("export-embeddings",
                       "--checkpoint", str(tmp_path / "run" / "encoder.params"),
                       "--vocab", str(tmp_path / "run" / "vocab.txt"), "--cases", str(cases),
                       "--out", str(tmp_path / "emb.csv")) == 0


class TestResume:
    @pytest.fixture
    def ckpt(self, tmp_path, corpus_dir, capsys):
        assert pretrain(corpus_dir, tmp_path / "run", "--steps", "2") == 0
        capsys.readouterr()
        return tmp_path / "run" / "checkpoints" / "step-000002.ckpt"

    def test_prints_the_steps_run(self, tmp_path, corpus_dir, ckpt, capsys):
        assert pretrain(corpus_dir, tmp_path / "more", "--steps", "3",
                             "--resume", str(ckpt)) == 0
        assert capsys.readouterr().out.startswith("trained 1 step: ")

    def test_changed_seed_exits_2(self, tmp_path, corpus_dir, ckpt, capsys):
        code = pretrain(corpus_dir, tmp_path / "more", "--steps", "3",
                             "--resume", str(ckpt), "--seed", "99")
        assert code == 2
        err = capsys.readouterr().err
        assert "seed (checkpoint 3, requested 99)" in err
        assert "Traceback" not in err

    def test_truncated_checkpoint_exits_2(self, tmp_path, corpus_dir, ckpt, capsys):
        ckpt.write_bytes(ckpt.read_bytes()[:3000])
        code = pretrain(corpus_dir, tmp_path / "more", "--steps", "3",
                             "--resume", str(ckpt))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: truncated or corrupt store" in err

    def test_changed_encoder_config_names_path_and_field(self, tmp_path, corpus_dir, ckpt,
                                                           capsys):
        code = pretrain(corpus_dir, tmp_path / "more", "--steps", "3",
                        "--resume", str(ckpt), "--hidden-size", "32")
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"error: {ckpt}: resuming would not continue the run exactly; "
                       "encoder config differs: hidden_size (checkpoint 16, requested 32)\n")

    @pytest.mark.parametrize("section, key, value, detail", [
        ("train_config", "warmup", 10, "unknown fields ['warmup'], missing fields []"),
        ("config", "dropout", 0.1, "unknown fields ['dropout'], missing fields []"),
        ("train_config", "seed", None, "unknown fields [], missing fields ['seed']"),
        ("circle_loss", "mix", None, "unknown fields [], missing fields ['mix']"),
    ], ids=["unknown-train-field", "unknown-encoder-field", "missing-train-field",
            "missing-circle-loss-field"])
    def test_stored_config_fields_must_match(self, tmp_path, corpus_dir, ckpt, capsys,
                                             section, key, value, detail):
        arrays, meta = load_arrays(str(ckpt))
        if value is None:
            del meta[section][key]
        else:
            meta[section][key] = value
        save_arrays(str(ckpt), arrays, meta)
        code = pretrain(corpus_dir, tmp_path / "more", "--steps", "3",
                        "--resume", str(ckpt))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: stored ")
        assert detail in err

    @pytest.mark.parametrize("edit, detail", [
        (lambda a: a.pop("opt.m.mlm.b"), "array 'opt.m.mlm.b' is missing"),
        (lambda a: a.pop("layers.0.ffn.w1"), "array 'layers.0.ffn.w1' is missing"),
        (lambda a: a.update({"layers.0.ffn.w1": a["layers.0.ffn.w1"][:, :-1]}),
         "array 'layers.0.ffn.w1' is float64 (16, 23), expected float64 (16, 24)"),
        (lambda a: a.update({"opt.v.ln_f.b": a["opt.v.ln_f.b"].astype("float32")}),
         "array 'opt.v.ln_f.b' is float32 (16,), expected float64 (16,)"),
        (lambda a: a.update({"opt.m.extra": a["ln_f.b"]}), "unexpected array 'opt.m.extra'"),
    ], ids=["missing-moment", "missing-param", "param-shape", "moment-dtype", "extra-array"])
    def test_damaged_arrays_exit_2_naming_the_array(self, tmp_path, corpus_dir, ckpt, capsys,
                                                    edit, detail):
        arrays, meta = load_arrays(str(ckpt))
        edit(arrays)
        save_arrays(str(ckpt), arrays, meta)
        code = pretrain(corpus_dir, tmp_path / "more", "--steps", "3", "--resume", str(ckpt))
        assert code == 2
        assert capsys.readouterr().err == f"error: {ckpt}: {detail}\n"

    def test_changed_mix_exits_2(self, tmp_path, corpus_dir, ckpt, capsys):
        code = pretrain(corpus_dir, tmp_path / "more", "--steps", "3",
                        "--resume", str(ckpt), "--mix", "5")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: resuming would not continue the run exactly; "
            "circle-loss config differs: mix (checkpoint 2.718281828459045e-06, "
            "requested 5.0)\n")

    def test_checkpoint_with_removed_settings_exits_2(self, tmp_path, corpus_dir, ckpt,
                                                       capsys):
        """A checkpoint that stores the Adam constants, the loss reduction
        and the quadruple resampling as settings is refused, writing nothing."""
        arrays, meta = load_arrays(str(ckpt))
        meta["train_config"].update(adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8,
                                    mlm_mean=True, resample_quadruples=True)
        save_arrays(str(ckpt), arrays, meta)
        code = pretrain(corpus_dir, tmp_path / "more", "--steps", "3", "--resume", str(ckpt))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: stored TrainConfig does not match this version: unknown fields "
            "['adam_beta1', 'adam_beta2', 'adam_eps', 'mlm_mean', 'resample_quadruples'], "
            "missing fields []\n")
        assert not (tmp_path / "more").exists()

    def test_checkpoint_without_circle_loss_settings_exits_2(self, tmp_path, corpus_dir,
                                                             ckpt, capsys):
        arrays, meta = load_arrays(str(ckpt))
        del meta["circle_loss"]
        save_arrays(str(ckpt), arrays, meta)
        code = pretrain(corpus_dir, tmp_path / "more", "--steps", "3", "--resume", str(ckpt))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: stored CircleLossParams is missing: "
            "the metadata has no field 'circle_loss'\n")

    def test_encode_with_unknown_params_field_exits_2(self, tmp_path, corpus_dir, ckpt,
                                                      capsys):
        params = tmp_path / "run" / "encoder.params"
        arrays, meta = load_arrays(str(params))
        meta["config"]["dropout"] = 0.1
        save_arrays(str(params), arrays, meta)
        code = run_cli("export-embeddings", "--checkpoint", str(params),
                       "--vocab", str(tmp_path / "run" / "vocab.txt"),
                       "--cases", str(corpus_dir / "cases.jsonl"),
                       "--out", str(tmp_path / "emb.csv"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {params}: stored EncoderConfig does not match this version: "
            "unknown fields ['dropout'], missing fields []\n"
        )


    def test_checkpoint_without_step_exits_2(self, tmp_path, corpus_dir, ckpt, capsys):
        arrays, meta = load_arrays(str(ckpt))
        del meta["step"]
        save_arrays(str(ckpt), arrays, meta)
        code = pretrain(corpus_dir, tmp_path / "more", "--steps", "3", "--resume", str(ckpt))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: stored step must be an integer >= 0, got None\n")

    def test_params_store_whose_meta_is_not_an_object_exits_2(self, tmp_path, corpus_dir,
                                                               ckpt, capsys):
        params = tmp_path / "run" / "encoder.params"
        save_arrays(str(params), load_arrays(str(params))[0], [1])
        code = run_cli("export-embeddings", "--checkpoint", str(params),
                       "--vocab", str(tmp_path / "run" / "vocab.txt"),
                       "--cases", str(corpus_dir / "cases.jsonl"),
                       "--out", str(tmp_path / "emb.csv"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {params}: truncated or corrupt store: metadata is not an object: [1]\n")


class TestErrorsAndHelp:
    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = run_cli("weights", "--articles", str(tmp_path / "nope.json"),
                       "--cases", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "w.csv"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("evaluate", "--bogus", "x")
        assert excinfo.value.code != 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--version")
        assert excinfo.value.code == 0
        assert "casevec" in capsys.readouterr().out

    def test_every_subcommand_help_lists_defaults(self, capsys):
        parser = build_parser()
        subcommands = ["gen-corpus", "expand-articles", "weights", "sample", "pretrain",
                       "rank", "evaluate", "export-embeddings"]
        assert list(next(a.choices for a in parser._actions if a.dest == "command")) == subcommands
        for name in subcommands:
            with pytest.raises(SystemExit):
                parser.parse_args([name, "--help"])
            text = capsys.readouterr().out
            assert "(default:" in text
        # spot-check a few documented defaults
        with pytest.raises(SystemExit):
            parser.parse_args(["pretrain", "--help"])
        text = capsys.readouterr().out
        assert "(default: 16.0)" in text      # gamma
        assert "(default: 1.25)" in text      # within-class optimum
        assert "(default: 0.001)" in text     # learning rate
