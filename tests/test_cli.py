import json

import pytest

import helpers
from e2el import candidates, cli
from e2el.corpus import write_corpus_jsonl, Document
from e2el.inference import Annotation, read_annotations, write_annotations


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, capfd_factory=None):
    """Run build -> train -> annotate once; commands under test share it."""
    root = tmp_path_factory.mktemp("pipeline")
    paths, docs = helpers.write_pipeline_fixture(root, seed=0, max_steps=600,
                                                 eval_every=200)
    rc = cli.run_command(["build-candidates", "--counts", paths["counts"],
                          "--out", paths["index"]])
    assert rc == 0
    rc = cli.run_command(["train", "--config", paths["config"]])
    assert rc == 0
    rc = cli.run_command(["annotate", "--config", paths["config"],
                          "--in", paths["corpus"], "--out", paths["annotations"]])
    assert rc == 0
    return paths, docs


class TestPipeline:
    def test_annotations_sorted_and_nonempty(self, pipeline):
        paths, docs = pipeline
        anns = read_annotations(paths["annotations"])
        assert anns
        keys = [(a.doc_id, a.start) for a in anns]
        assert keys == sorted(keys)

    def test_end_to_end_f1(self, pipeline, capfd):
        paths, docs = pipeline
        rc = cli.run_command(["evaluate", "--pred", paths["annotations"],
                              "--gold", paths["corpus"], "--mode", "strong"])
        assert rc == 0
        out, err = capfd.readouterr()
        report = json.loads(out.strip().splitlines()[-1])
        assert report["micro"]["f1"] >= 0.95
        assert "micro" in err  # human-readable table on stderr

    def test_training_log_records(self, pipeline):
        paths, _ = pipeline
        records = [json.loads(line) for line in open(paths["log"], encoding="utf-8")]
        assert records
        for rec in records:
            assert set(rec) == {"step", "loss", "dev_macro_f1", "delta"}

    def test_checkpoint_has_threshold_and_chars(self, pipeline):
        from e2el.training import load_checkpoint
        paths, _ = pipeline
        state = load_checkpoint(paths["checkpoint"])
        assert "meta.delta" in state and "meta.char_vocab" in state

    def test_select_threshold_command(self, pipeline, capfd):
        paths, _ = pipeline
        rc = cli.run_command(["select-threshold", "--config", paths["config"],
                              "--dev", paths["corpus"]])
        assert rc == 0
        out, _ = capfd.readouterr()
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["micro_f1"] >= 0.95

    def test_checkpoint_missing_parameter(self, pipeline, tmp_path, capfd):
        paths, _ = pipeline
        capfd.readouterr()
        rc = cli.run_command(["annotate", "--config", paths["config"],
                              "--in", paths["corpus"], "--out", str(tmp_path / "a.jsonl"),
                              "--set", "model.use_global=true"])
        assert rc == 1
        err = capfd.readouterr().err
        assert paths["checkpoint"] in err and "'phi.w'" in err

    def test_annotate_bad_index_prior(self, pipeline, tmp_path, capfd):
        paths, _ = pipeline
        bad = str(tmp_path / "bad-index.bin")
        index = candidates.load_index(paths["index"])
        surface = sorted(index.entries)[0]
        index.entries[surface][0] = candidates.CandidateEntry("E", float("nan"))
        candidates.save_index(index, bad)
        capfd.readouterr()
        rc = cli.run_command(["annotate", "--config", paths["config"],
                              "--in", paths["corpus"], "--out", str(tmp_path / "a.jsonl"),
                              "--set", f"paths.candidate_index={bad}"])
        assert rc == 1
        err = capfd.readouterr().err
        assert bad in err and "prior nan" in err

    def test_annotate_vector_count_beyond_file_size(self, pipeline, tmp_path, capfd):
        paths, _ = pipeline
        bad = tmp_path / "words.txt"
        bad.write_text("1000000000000 16\nw" + " 0.5" * 16 + "\n", encoding="utf-8")
        capfd.readouterr()
        rc = cli.run_command(["annotate", "--config", paths["config"],
                              "--in", paths["corpus"], "--out", str(tmp_path / "a.jsonl"),
                              "--set", f"paths.word_embeddings={bad}"])
        assert rc == 1
        assert f"{bad}:1:" in capfd.readouterr().err

    def test_annotate_el_under_gold_spans_regime(self, pipeline, tmp_path):
        """EL annotation scores every alias span, whatever the training regime."""
        paths, docs = pipeline
        nogold = str(tmp_path / "nogold.jsonl")
        write_corpus_jsonl([Document("plain", docs[0].tokens)], nogold)
        out = str(tmp_path / "el.jsonl")
        rc = cli.run_command(["annotate", "--config", paths["config"], "--in", nogold,
                              "--out", out, "--set", "train.regime=gold_spans"])
        assert rc == 0
        assert read_annotations(out)

    def test_annotate_ed_task(self, pipeline, tmp_path, capfd):
        paths, _ = pipeline
        out = str(tmp_path / "ed.jsonl")
        rc = cli.run_command(["annotate", "--config", paths["config"],
                              "--in", paths["corpus"], "--out", out, "--task", "ED"])
        assert rc == 0
        capfd.readouterr()
        rc = cli.run_command(["evaluate", "--pred", out, "--gold", paths["corpus"],
                              "--mode", "strong", "--task", "ED"])
        assert rc == 0
        out_text, _ = capfd.readouterr()
        report = json.loads(out_text.strip().splitlines()[-1])
        assert report["task"] == "ED"
        assert report["micro"]["f1"] >= 0.95

    def test_recall_report(self, pipeline, tmp_path, capfd):
        paths, _ = pipeline
        rc = cli.run_command(["build-candidates", "--counts", paths["counts"],
                              "--out", str(tmp_path / "i.bin"),
                              "--recall-corpus", paths["corpus"]])
        assert rc == 0
        out, _ = capfd.readouterr()
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["recall"]["30"] == 1.0 and rec["recall"]["10"] == 1.0


class TestExitCodes:
    def test_missing_config_is_validation_error(self, tmp_path):
        rc = cli.run_command(["train", "--config", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_unknown_command(self):
        assert cli.run_command(["frobnicate"]) == 1

    def test_malformed_counts_file(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a valid line\n", encoding="utf-8")
        rc = cli.run_command(["build-candidates", "--counts", str(bad),
                              "--out", str(tmp_path / "i.bin")])
        assert rc == 1

    def test_evaluate_on_unknown_doc(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        write_corpus_jsonl([Document("d1", ["a"], [(0, 0, "E")])], str(gold))
        pred = tmp_path / "pred.jsonl"
        write_annotations([Annotation("other", 0, 0, "E", 1.0)], str(pred))
        rc = cli.run_command(["evaluate", "--pred", str(pred), "--gold", str(gold)])
        assert rc == 1


@pytest.fixture
def unreadable_inputs(tmp_path):
    """A fixture config whose every input file is invalid JSON."""
    paths, _ = helpers.write_pipeline_fixture(tmp_path, max_steps=2, eval_every=1)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n", encoding="utf-8")
    keys = ("paths.word_embeddings", "paths.entity_embeddings", "paths.candidate_index",
            "paths.train_corpus", "paths.dev_corpus", "paths.checkpoint")
    return paths["config"], str(bad), [f"{key}={bad}" for key in keys]


class TestConfigErrorsBeforeInputs:
    @pytest.mark.parametrize("override, reported", [
        ("train.eval_every=0", "eval_every must be at least 1"),
        ('train.gamma="abc"', "'train.gamma' takes a number"),
        ("global.gamma_prime=null", "'global.gamma_prime' takes a number"),
        ("train.max_steps=0", "max_steps must be null or at least 1"),
        ('model.use_global="no"', "'model.use_global' takes true or false"),
        ("train.improvement=NaN", "improvement must be finite and at least 0")])
    @pytest.mark.parametrize("command", ["train", "annotate", "select-threshold"])
    def test_exit_1_naming_the_setting(self, unreadable_inputs, capfd, command,
                                       override, reported):
        config, bad, sets = unreadable_inputs
        argv = {"train": [], "annotate": ["--in", bad, "--out", bad + ".out"],
                "select-threshold": ["--dev", bad]}[command]
        for item in sets + [override]:
            argv += ["--set", item]
        rc = cli.run_command([command, "--config", config] + argv)
        err = capfd.readouterr().err
        assert rc == 1
        assert reported in err and bad not in err


class TestEvaluateCommand:
    def test_matches_library_evaluation(self, tmp_path, capfd):
        docs = [Document("d1", ["a", "b", "c"], [(0, 1, "E1"), (2, 2, "E2")]),
                Document("d2", ["x"], [(0, 0, "E3")])]
        gold_path = str(tmp_path / "gold.jsonl")
        write_corpus_jsonl(docs, gold_path)
        pred = [Annotation("d1", 0, 1, "E1", 0.9), Annotation("d1", 2, 2, "WRONG", 0.4)]
        pred_path = str(tmp_path / "pred.jsonl")
        write_annotations(pred, pred_path)
        rc = cli.run_command(["evaluate", "--pred", pred_path, "--gold", gold_path,
                              "--mode", "strong"])
        assert rc == 0
        out, _ = capfd.readouterr()
        report = json.loads(out.strip().splitlines()[-1])
        assert report["micro"]["precision"] == pytest.approx(0.5)
        assert report["micro"]["recall"] == pytest.approx(1 / 3)
        assert report["per_doc"]["d2"] == {"tp": 0, "fp": 0, "fn": 1}


class TestGradCheckCommand:
    def test_passes_tolerance(self, capfd):
        rc = cli.run_command(["grad-check", "--seed", "0"])
        out, _ = capfd.readouterr()
        rec = json.loads(out.strip().splitlines()[-1])
        assert rc == 0
        assert rec["max_relative_error"] <= 1e-4


class TestCorpusSniffing:
    def test_conll_detected(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("-DOCSTART- (d1)\nParis\tB\tParis_city\n", encoding="utf-8")
        docs = cli.load_corpus(str(p))
        assert docs[0].gold == [(0, 0, "Paris_city")]

    def test_jsonl_detected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"doc_id":"d","tokens":["a"]}\n', encoding="utf-8")
        assert cli.load_corpus(str(p))[0].doc_id == "d"

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("", encoding="utf-8")
        assert cli.load_corpus(str(p)) == []
