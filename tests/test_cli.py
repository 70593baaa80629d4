import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import helpers
from e2el import autodiff as ad
from e2el import candidates, cli, inference
from e2el.corpus import write_corpus_jsonl, Document
from e2el.inference import Annotation, read_annotations, write_annotations
from e2el.model import LinkingModel


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

    def test_select_threshold_command(self, pipeline, capfd, tmp_path):
        paths, docs = pipeline
        rc = cli.run_command(["select-threshold", "--config", paths["config"],
                              "--dev", paths["corpus"]])
        assert rc == 0
        out, _ = capfd.readouterr()
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["micro_f1"] >= 0.95
        assert rec["documents"] == len(docs)
        assert 2 <= rec["thresholds"] <= rec["pairs"] + 1
        assert 1 <= rec["annotations"] <= rec["pairs"]

        unlinkable = str(tmp_path / "unlinkable.jsonl")
        write_corpus_jsonl([Document("plain", ["no", "alias", "here"])], unlinkable)
        rc = cli.run_command(["select-threshold", "--config", paths["config"],
                              "--dev", unlinkable])
        assert rc == 1
        assert (f"error: {unlinkable}: no scored pairs to tune the threshold on"
                in capfd.readouterr().err)

    def test_checkpoint_missing_parameter(self, pipeline, tmp_path, capfd):
        paths, _ = pipeline
        capfd.readouterr()
        rc = cli.run_command(["annotate", "--config", paths["config"],
                              "--in", paths["corpus"], "--out", str(tmp_path / "a.jsonl"),
                              "--set", "model.use_global=true"])
        assert rc == 1
        err = capfd.readouterr().err
        assert paths["checkpoint"] in err and "'phi.w'" in err

    def test_checkpoint_cut_before_delta(self, pipeline, tmp_path, capfd):
        from e2el.training import load_checkpoint
        paths, _ = pipeline
        data = open(paths["checkpoint"], "rb").read()
        entry = 2 + len(b"meta.delta") + 1 + 4 + 4  # name, rank 0, one float, CRC
        assert data[-entry + 2:-entry + 12] == b"meta.delta"
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(data[:-entry])
        state = load_checkpoint(str(cut))  # a cut between entries reads silently
        assert "meta.delta" not in state and "proj.w" in state
        capfd.readouterr()
        rc = cli.run_command(["annotate", "--config", paths["config"],
                              "--in", paths["corpus"], "--out", str(tmp_path / "a.jsonl"),
                              "--set", f"paths.checkpoint={cut}"])
        assert rc == 1
        err = capfd.readouterr().err
        assert f"{cut}: checkpoint lacks meta.delta" in err

    def test_checkpoint_nan_delta(self, pipeline, tmp_path, capfd):
        from e2el.training import load_checkpoint, save_checkpoint
        paths, _ = pipeline
        state = load_checkpoint(paths["checkpoint"])
        state["meta.delta"] = np.float32("nan")
        bad = str(tmp_path / "nan.ckpt")
        save_checkpoint(state, bad)
        capfd.readouterr()
        rc = cli.run_command(["annotate", "--config", paths["config"],
                              "--in", paths["corpus"], "--out", str(tmp_path / "a.jsonl"),
                              "--set", f"paths.checkpoint={bad}"])
        assert rc == 1
        assert f"{bad}: meta.delta is nan" in capfd.readouterr().err
        assert not (tmp_path / "a.jsonl").exists()

    CODEPOINTS = "meta.char_vocab must hold distinct integer code points in [0, 0x10FFFF]"

    @pytest.mark.parametrize("key, change, reported", [
        ("meta.delta", lambda a: [0.1, 0.2], "meta.delta must be one value, got 2"),
        ("meta.delta", lambda a: [], "meta.delta must be one value, got 0"),
        ("meta.char_vocab", lambda a: np.r_[a[:1], a[:1], a[2:]], CODEPOINTS),  # repeated
        ("meta.char_vocab", lambda a: np.r_[97.5, a[1:]], CODEPOINTS),
        ("meta.char_vocab", lambda a: np.r_[-1, a[1:]], CODEPOINTS),
        ("meta.char_vocab", lambda a: np.r_[0x110000, a[1:]], CODEPOINTS),
        ("char_table", lambda a: a[:-1], "char_table has shape"),
    ], ids=["delta-2", "delta-0", "repeated", "fractional", "negative", "beyond", "short-table"])
    def test_checkpoint_bad_metadata(self, pipeline, tmp_path, capfd, key, change, reported):
        from e2el.training import load_checkpoint, save_checkpoint
        paths, _ = pipeline
        state = load_checkpoint(paths["checkpoint"])
        state[key] = np.asarray(change(state[key]), dtype=np.float32)
        bad = str(tmp_path / "bad.ckpt")
        save_checkpoint(state, bad)
        capfd.readouterr()
        rc = cli.run_command(["annotate", "--config", paths["config"],
                              "--in", paths["corpus"], "--out", str(tmp_path / "a.jsonl"),
                              "--set", f"paths.checkpoint={bad}"])
        assert rc == 1
        assert f"{bad}: {reported}" in capfd.readouterr().err
        assert not (tmp_path / "a.jsonl").exists()

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


class TestCorpusScoring:
    """Each command runs whole with the cyclic collector paused: every
    training step, every scored document, and the sweep, decode,
    evaluation and write that read the scores run with the collector off.
    It is back on after the command, also when scoring raises."""

    COMMANDS = {
        "annotate-EL": lambda paths, out: ["annotate", "--config", paths["config"],
                                           "--in", paths["corpus"], "--out", out],
        "annotate-ED": lambda paths, out: ["annotate", "--config", paths["config"],
                                           "--in", paths["corpus"], "--out", out,
                                           "--task", "ED"],
        "select-threshold": lambda paths, out: ["select-threshold", "--config",
                                                paths["config"], "--dev", paths["corpus"]],
        "train": lambda paths, out: ["train", "--config", paths["config"],
                                     "--set", f"paths.checkpoint={out}.ckpt",
                                     "--set", f"paths.train_log={out}.log",
                                     "--set", "train.max_steps=2",
                                     "--set", "train.eval_every=1"],
    }
    # the spied functions each command reaches besides `score_pairs`
    REACHED = {"annotate-EL": {"greedy_decode", "write_annotations"},
               "annotate-ED": {"write_annotations"},
               "select-threshold": {"select_threshold", "greedy_decode", "evaluate"},
               "train": {"backward", "select_threshold", "greedy_decode", "evaluate"}}
    PASSES = {"train": 2}  # its two dev evaluations each score the corpus

    @staticmethod
    def spy(monkeypatch, fail_at=None):
        """Records (document, collector on?) per scored document and (name,
        collector on?) per call of the other spied functions."""
        seen, calls = [], []
        score_pairs = LinkingModel.score_pairs

        def wrapped(model, doc, spans):
            seen.append((doc.doc_id, gc.isenabled()))
            if len(seen) == fail_at:
                raise RuntimeError("scoring failed")
            return score_pairs(model, doc, spans)

        def recorded(name, fn):
            def call(*args, **kwargs):
                calls.append((name, gc.isenabled()))
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(LinkingModel, "score_pairs", wrapped)
        for name in ("select_threshold", "greedy_decode", "evaluate", "write_annotations"):
            monkeypatch.setattr(inference, name, recorded(name, getattr(inference, name)))
        monkeypatch.setattr(ad, "backward", recorded("backward", ad.backward))
        return seen, calls

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_document_scored_with_the_collector_paused(self, pipeline, tmp_path,
                                                             monkeypatch, command):
        paths, docs = pipeline
        seen, calls = self.spy(monkeypatch)
        assert cli.run_command(self.COMMANDS[command](paths, str(tmp_path / "a.jsonl"))) == 0
        assert seen == [(doc.doc_id, False) for doc in docs] * self.PASSES.get(command, 1)
        assert {name for name, _ in calls} == self.REACHED[command]
        assert not any(enabled for _, enabled in calls)
        assert gc.isenabled()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_collector_resumes_when_scoring_raises(self, pipeline, tmp_path, monkeypatch,
                                                   capfd, command):
        paths, docs = pipeline
        seen, calls = self.spy(monkeypatch, fail_at=2)
        assert cli.run_command(self.COMMANDS[command](paths, str(tmp_path / "a.jsonl"))) == 2
        assert "runtime error: scoring failed" in capfd.readouterr().err
        assert seen == [(doc.doc_id, False) for doc in docs[:2]]
        assert not any(enabled for _, enabled in calls)
        assert gc.isenabled()

    ARGV = {"build-candidates": ["--out", "i.bin"], "train": ["--config", "c.json"],
            "annotate": ["--config", "c.json", "--in", "d.jsonl", "--out", "a.jsonl"],
            "evaluate": ["--pred", "a.jsonl", "--gold", "d.jsonl"],
            "select-threshold": ["--config", "c.json", "--dev", "d.jsonl"], "grad-check": []}

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_every_command_runs_paused(self, monkeypatch, command):
        # the whole command, up to a validation error, and the collector on after
        seen = []

        def stand_in(args):
            seen.append(gc.isenabled())
            raise ValueError("stand-in")

        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), stand_in)
        assert cli.run_command([command] + self.ARGV[command]) == 1
        assert seen == [False]
        assert gc.isenabled()


class TestExitCodes:
    def test_missing_config_is_validation_error(self, tmp_path):
        rc = cli.run_command(["train", "--config", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_unknown_command(self):
        assert cli.run_command(["frobnicate"]) == 1

    def test_removed_soft_head_space_key_exits_1(self, tmp_path, capfd):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"encoder.soft_head_space": "x"}', encoding="utf-8")
        assert cli.run_command(["train", "--config", str(cfg)]) == 1
        assert "encoder.soft_head_space" in capfd.readouterr().err

    def test_malformed_counts_file(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a valid line\n", encoding="utf-8")
        rc = cli.run_command(["build-candidates", "--counts", str(bad),
                              "--out", str(tmp_path / "i.bin")])
        assert rc == 1

    @pytest.mark.parametrize("flag, value", [("--max-span-length", "0"),
                                             ("--max-candidates", "0"),
                                             ("--max-span-length", "-3"),
                                             ("--max-candidates", "-3")])
    def test_index_size_below_one(self, tmp_path, capfd, flag, value):
        counts = tmp_path / "counts.tsv"
        counts.write_text("Paris\tParis_city\t3\n", encoding="utf-8")
        out = tmp_path / "i.bin"
        rc = cli.run_command(["build-candidates", "--counts", str(counts),
                              "--out", str(out), flag, value])
        assert rc == 1 and not out.exists()
        assert "must both be at least 1" in capfd.readouterr().err

    def test_blank_prior_surface(self, tmp_path, capfd):
        priors = tmp_path / "priors.tsv"
        priors.write_text("Paris\tParis_city\t0.9\n  \tParis_Hilton\t0.1\n", encoding="utf-8")
        out = tmp_path / "i.bin"
        rc = cli.run_command(["build-candidates", "--priors", str(priors), "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert f"error: {priors}:2: empty surface" in capfd.readouterr().err

    @pytest.mark.parametrize("field, value", [("doc_id", ["d1"]), ("entity", ["E1"]),
                                              ("entity", 7), ("start", -1), ("start", 1)])
    def test_evaluate_bad_field_type(self, tmp_path, capfd, field, value):
        gold = tmp_path / "gold.jsonl"
        write_corpus_jsonl([Document("d1", ["a"], [(0, 0, "E1")])], str(gold))
        record = {"doc_id": "d1", "start": 0, "end": 0, "entity": "E1", "score": 1.0}
        record[field] = value
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps(record) + "\n", encoding="utf-8")
        rc = cli.run_command(["evaluate", "--pred", str(pred), "--gold", str(gold)])
        assert rc == 1
        assert f"error: {pred}:1: bad annotation record: {field}" in capfd.readouterr().err

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
        ("train.improvement=NaN", "improvement must be finite and at least 0"),
        ("attention.keep=0", "'attention.keep' must be between 1 and 'attention.window'"),
        ("attention.window=5", "'attention.keep' must be between 1 and 'attention.window'"),
        ("seed=-1", "seed must be at least 0, got -1")])
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


    def test_nan_delta_exits_1(self, unreadable_inputs, capfd):
        config, bad, sets = unreadable_inputs
        argv = ["annotate", "--config", config, "--in", bad, "--out", bad + ".out",
                "--delta", "nan"]
        for item in sets:
            argv += ["--set", item]
        rc = cli.run_command(argv)
        err = capfd.readouterr().err
        assert rc == 1
        assert "--delta must be a number, got nan" in err and bad not in err
        assert not os.path.exists(bad + ".out")


class TestModuleEntryPoints:
    def run_module(self, *args):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", *args], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)

    def test_package_help(self):
        proc = self.run_module("e2el", "--help")
        assert proc.returncode == 0
        assert "select-threshold" in proc.stdout

    def test_cli_module_bad_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        proc = self.run_module("e2el.cli", "train", "--config", str(bad))
        assert proc.returncode == 1
        assert f"{bad}: invalid JSON" in proc.stderr


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
