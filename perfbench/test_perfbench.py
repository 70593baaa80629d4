"""Self-test of the benchmark: every workload runs tiny, traced and untraced.

Run from the repository root: ``python3 -m pytest -q perfbench``.

A rename of a wrapped e2el function makes `Tracer.install` fail, and a
layer that stops being reached leaves its span out of the table; both fail
here instead of silently zeroing a per-layer metric.
"""

import functools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# span names each workload must reach, at set-up and in the measured ops
SETUP_SPANS = {
    "train-paper": {"corpus.parse_corpus_jsonl", "embeddings.load_text_embeddings",
                    "embeddings.load_binary_embeddings", "candidates.load_any_index"},
    "annotate-toy": {"corpus.parse_corpus_jsonl", "embeddings.load_text_embeddings",
                     "embeddings.load_binary_embeddings", "candidates.load_any_index",
                     "training.load_checkpoint"},
    "threshold-sweep": {"corpus.parse_corpus_jsonl", "candidates.load_any_index"},
}
OP_SPANS = {
    "train-paper": {
        "op", "candidates.enumerate_spans", "candidates.apply_coreference_heuristic",
        "encoder.encode_document", "encoder.char_embed", "encoder.mention_repr",
        "scoring.local_score", "scoring.long_range_feature", "scoring.filter_voters",
        "scoring.vote_vector", "scoring.global_score", "scoring.combine_global",
        "model.pair_scores", "model.score_pairs", "autodiff.backward", "autodiff.adam_step",
        "training.document_loss", "training.dev_eval", "inference.select_threshold",
        "inference.greedy_decode", "inference.evaluate"},
    "annotate-toy": {
        "op", "candidates.enumerate_spans", "candidates.apply_coreference_heuristic",
        "encoder.encode_document", "encoder.char_embed", "encoder.mention_repr",
        "scoring.local_score", "model.pair_scores", "model.score_pairs",
        "inference.greedy_decode"},
    "threshold-sweep": {"op", "inference.select_threshold", "inference.greedy_decode",
                        "inference.evaluate"},
}
# layers the workload must not reach: a change to them predicts no change there
ABSENT_SPANS = {
    "annotate-toy": {"scoring.long_range_feature", "scoring.filter_voters",
                     "scoring.vote_vector", "scoring.global_score", "scoring.combine_global",
                     "autodiff.backward", "autodiff.adam_step", "training.document_loss",
                     "inference.select_threshold"},
    "threshold-sweep": {"model.pair_scores", "encoder.encode_document",
                        "candidates.enumerate_spans"},
}


@functools.cache
def tiny_run(workload, trace):
    """(report, result) of one tiny run with no time budget."""
    return run.run(workload, seed=5, seconds=0.0, trace=trace, tiny=True)


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_result_has_every_end_to_end_metric(name):
    report, result = tiny_run(name, False)
    check_result(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["ops_failed"] == 0 and report["openblas_threads"] == run.BLAS_THREADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_result_has_every_per_layer_metric(name):
    report, result = tiny_run(name, True)
    check_result(result, BENCH["per_layer"])
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_wrapper_fired_where_expected(name):
    report, result = tiny_run(name, True)
    fired = {n for n, row in report["spans_per_unit"].items() if row["calls"] > 0}
    assert OP_SPANS[name] <= fired
    assert not ABSENT_SPANS.get(name, set()) & fired
    assert SETUP_SPANS[name] <= set(report["setup_spans_per_setup"])


def test_annotate_toy_runs_no_attention_and_no_global_layer():
    metrics = tiny_run("annotate-toy", True)[1]["metrics"]
    for layer in ("scoring.attention_calls", "scoring.attention_s", "scoring.global_s",
                  "scoring.voters", "autodiff.backward_s", "autodiff.adam_s"):
        assert metrics[layer]["value"] == 0.0


def test_every_wrapped_function_is_reached_by_some_workload():
    reached = set().union(*SETUP_SPANS.values(), *OP_SPANS.values())
    assert {span for _, _, span, _ in tracer.LAYERS} <= reached


def test_uninstall_restores_the_program():
    from e2el import model, scoring
    before = (scoring.local_score, model.encode_document, model.LinkingModel.pair_scores)
    with tracer.Tracer():
        assert scoring.local_score is not before[0]
    assert (scoring.local_score, model.encode_document,
            model.LinkingModel.pair_scores) == before


def test_same_seed_gives_byte_identical_inputs(tmp_path, monkeypatch):
    digests = []
    for seed, hash_seed in ((3, "1"), (3, "2"), (4, "1")):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        digests.append(run.generate("annotate-toy", seed, str(tmp_path / f"{seed}-{hash_seed}"),
                                    tiny=True))
    assert digests[0] == digests[1] != digests[2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
