"""CLI subcommands end to end on temporary directories."""

import json

import pytest

from casevec.cli import build_parser, main
from casevec.encoder import load_arrays, save_arrays


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


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
        assert run_cli("encode", "--checkpoint", str(run_dir / "encoder.params"),
                       "--vocab", str(run_dir / "vocab.txt"),
                       "--cases", str(corpus_dir / "cases.jsonl"), "--out", str(emb)) == 0
        header = emb.read_text().splitlines()[0]
        assert header.startswith("case_id,dim0")

        emb2d = tmp_path / "emb2d.csv"
        assert run_cli("export-embeddings", "--checkpoint", str(run_dir / "encoder.params"),
                       "--vocab", str(run_dir / "vocab.txt"),
                       "--cases", str(corpus_dir / "cases.jsonl"),
                       "--labels", str(corpus_dir / "labels.csv"),
                       "--out", str(emb2d), "--projection", "pca2d") == 0
        assert emb2d.read_text().splitlines()[0] == "case_id,label,x,y"

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
        ("--positive-floor", "inf", "positive_floor must be finite, got inf"),
        ("--mask-rate", "3", "mask_rate must be in [0, 1], got 3.0"),
        ("--mask-rate", "-0.1", "mask_rate must be in [0, 1], got -0.1"),
    ])
    def test_bad_setting_exits_2_before_any_step(self, tmp_path, corpus_dir, capsys,
                                                 flag, value, detail):
        run_dir = tmp_path / "run"
        assert pretrain(corpus_dir, run_dir, "--steps", "2", flag, value) == 2
        assert capsys.readouterr().err == f"error: {detail}\n"
        assert not run_dir.exists()


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
    ], ids=["unknown-train-field", "unknown-encoder-field", "missing-train-field"])
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

    def test_encode_with_unknown_params_field_exits_2(self, tmp_path, corpus_dir, ckpt,
                                                      capsys):
        params = tmp_path / "run" / "encoder.params"
        arrays, meta = load_arrays(str(params))
        meta["config"]["dropout"] = 0.1
        save_arrays(str(params), arrays, meta)
        code = run_cli("encode", "--checkpoint", str(params),
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
        code = run_cli("encode", "--checkpoint", str(params),
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
                       "encode", "rank", "evaluate", "export-embeddings"]
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
