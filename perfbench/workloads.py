"""The three benchmark workloads and the loop that measures them.

Each workload loads its generated inputs through the public loaders the
CLI uses (`setup`), then runs ops: `run_op` is timed, `check_op` is not.
Ops run one after another from a single caller (a closed loop), in whole
passes over `op_labels()`, until the run has lasted `seconds` and at least
`min_ops` ops are done.

- train-paper: one op is `training.train` for `STEPS` Adam steps plus its
  dev evaluation, at the paper's dims, from the same initial parameters
  every time, so every op does identical work.
- annotate-toy: one op is one document through the steps of
  `cli.cmd_annotate`: spans, coreference, `score_pairs`, `greedy_decode`.
- threshold-sweep: one op is one `inference.select_threshold` call on a
  pre-scored dev set, alternating strong and weak matching.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time

import numpy as np

import checks
import inputs
from e2el import autodiff as ad
from e2el import candidates, cli, inference, scoring, training
from e2el.config import RunConfig
from e2el.embeddings import CharTable

STEPS = 2  # Adam steps per train-paper op
# train-paper's model seed. The sign of the random prior weight decides whether
# almost every pair or none reaches the voting threshold; with this seed every
# input seed exercises the global layer with all pairs voting.
MODEL_SEED = 0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _spans(doc, index):
    return candidates.apply_coreference_heuristic(candidates.enumerate_spans(doc, index), doc)


def input_shapes(docs, index) -> dict:
    """Token, span, pair and gold-coverage counts of a corpus under the index."""
    tokens = unique = spans = pairs = gold = covered = 0
    for doc in docs:
        sp = _spans(doc, index)
        by_span = {(s.start, s.end): {c.entity_id for c in s.candidates} for s in sp}
        tokens += len(doc.tokens)
        unique += len(set(doc.tokens))
        spans += len(sp)
        pairs += sum(len(s.candidates) for s in sp)
        gold += len(doc.gold)
        covered += sum(1 for s, e, ent in doc.gold if ent in by_span.get((s, e), ()))
    return {"documents": len(docs), "tokens": tokens, "unique_token_share": unique / tokens,
            "spans": spans, "pairs": pairs, "gold_coverage": covered / gold if gold else 1.0}


class Workload:
    name = ""
    unit = ""  # what one unit of per-layer normalisation is

    def __init__(self, directory: str, profile: inputs.Profile, seed: int):
        self.dir = directory
        self.profile = profile
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def config(self, **values) -> RunConfig:
        cfg = RunConfig({"seed": self.seed, **self.profile.dims(),
                         "paths.word_embeddings": self.path("words.txt"),
                         "paths.entity_embeddings": self.path("entities.bin"),
                         "paths.candidate_index": self.path("index.bin"), **values})
        cfg.validate_paths()
        return cfg

    def op_labels(self) -> list:
        """One pass over the workload's distinct ops; the loop runs whole passes."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def shapes(self) -> dict:
        raise NotImplementedError

    def run_op(self, label):
        raise NotImplementedError

    def check_op(self, label, out) -> bool:
        raise NotImplementedError

    def summary(self, records: list[tuple]) -> dict:
        """Metrics from (label, seconds, ok, out) records of the measured ops."""
        raise NotImplementedError

    def attempted(self, label) -> int:
        return 1

    def units(self, label) -> int:
        return 1


class TrainPaper(Workload):
    name = "train-paper"
    unit = "Adam step"

    def setup(self) -> None:
        self.cfg = self.config(**{
            "paths.train_corpus": self.path("train.jsonl"),
            "paths.dev_corpus": self.path("dev.jsonl"),
            "model.use_attention": True, "model.use_global": True,
            "attention.window": 200, "attention.keep": 10,
            "encoder.dropout_keep": 0.5, "train.regime": "all_spans",
            "coref.enabled": True, "train.max_steps": STEPS, "train.eval_every": STEPS,
            "seed": MODEL_SEED})
        self.train_docs = cli.load_corpus(self.cfg["paths.train_corpus"])
        self.dev_docs = cli.load_corpus(self.cfg["paths.dev_corpus"])
        self.index = candidates.load_any_index(self.cfg["paths.candidate_index"])
        tokens = [t for doc in self.train_docs for t in doc.tokens]
        chars = CharTable.build(tokens, self.cfg["dims.char"],
                                ad.rng_stream(self.cfg["seed"], "char_init"))
        self.model = cli.build_model(self.cfg, chars)
        self.tcfg = cli.train_config_from(self.cfg)
        self.initial = self.model.params.state_dict()

    def shapes(self) -> dict:
        return {"train": input_shapes(self.train_docs, self.index),
                "dev": input_shapes(self.dev_docs, self.index)}

    def op_labels(self) -> list:
        return ["round"]

    def attempted(self, label) -> int:
        return STEPS + 1  # the Adam steps and the dev evaluation

    def units(self, label) -> int:
        return STEPS

    def run_op(self, label):
        self.model.params.load_state_dict(self.initial)
        return training.train(self.train_docs, self.dev_docs, self.model, self.index,
                              self.tcfg)

    def check_op(self, label, result) -> bool:
        return (result.steps == STEPS and len(result.history) == 1
                and math.isfinite(result.history[0]["loss"])
                and all(np.all(np.isfinite(t.data)) for _, t in self.model.params.items())
                and 0.0 <= result.best_macro_f1 <= 1.0)

    def summary(self, records) -> dict:
        tokens = sum(len(d.tokens) for d in self.train_docs) / len(self.train_docs)
        seconds = statistics.median(r[1] for r in records)
        return {"tokens_per_s": STEPS * tokens / seconds,
                "train_docs_per_s": STEPS / seconds, "round_s": seconds,
                "dev_macro_f1": records[0][3].best_macro_f1}


class AnnotateToy(Workload):
    name = "annotate-toy"
    unit = "document"

    def setup(self) -> None:
        self.cfg = self.config(**{"model.use_attention": False, "model.use_global": False,
                                  "coref.enabled": True, "encoder.dropout_keep": 1.0})
        self.model, self.delta = cli.model_from_checkpoint(self.cfg, self.path("model.ckpt"))
        self.index = candidates.load_any_index(self.cfg["paths.candidate_index"])
        self.docs = cli.load_corpus(self.path("docs.jsonl"))

    def shapes(self) -> dict:
        return input_shapes(self.docs, self.index)

    def op_labels(self) -> list:
        return list(range(len(self.docs)))

    def run_op(self, i):
        doc = self.docs[i]
        spans = candidates.enumerate_spans(doc, self.index)
        spans = candidates.apply_coreference_heuristic(spans, doc)
        pairs = self.model.score_pairs(doc, spans)
        return spans, inference.greedy_decode(pairs, self.delta)

    def check_op(self, i, out) -> bool:
        spans, annotations = out
        return checks.annotations_valid(self.docs[i], spans, annotations, self.delta)

    def write(self, records) -> float:
        """`write_annotations` for the first pass, as `cmd_annotate` ends; returns seconds."""
        annotations = [a for r in records[:len(self.docs)] for a in r[3][1]]
        start = time.perf_counter()
        inference.write_annotations(annotations, self.path("annotations.jsonl"))
        return time.perf_counter() - start

    def summary(self, records) -> dict:
        tokens = sum(len(self.docs[r[0]].tokens) for r in records)
        seconds = sum(r[1] for r in records) + self.write(records)
        ms = [1000.0 * r[1] for r in records]
        p90 = _percentile(ms, 90)
        gold = {doc.doc_id: list(doc.gold) for doc in self.docs}
        found = [(a.doc_id, a.start, a.end, a.entity_id)
                 for r in records[:len(self.docs)] for a in r[3][1]]
        return {"docs_per_s": len(records) / seconds, "tokens_per_s": tokens / seconds,
                "doc_ms_p50": _percentile(ms, 50), "doc_ms_p90": p90,
                "doc_samples": len(ms), "doc_samples_beyond_p90": sum(m > p90 for m in ms),
                "micro_f1": checks.micro_f1(found, gold, "strong")}


class ThresholdSweep(Workload):
    name = "threshold-sweep"
    unit = "sweep"

    def setup(self) -> None:
        self.index = candidates.load_any_index(self.path("index.bin"))
        self.docs = cli.load_corpus(self.path("dev.jsonl"))
        self.gold = {doc.doc_id: list(doc.gold) for doc in self.docs}
        rng = inputs.stream(self.seed, "scores")
        self.pairs = []
        for doc in self.docs:
            gold = set(doc.gold)
            for span in _spans(doc, self.index):
                for c in span.candidates:
                    mean = 1.0 if (span.start, span.end, c.entity_id) in gold else -1.0
                    score = float(rng.normal(mean, 1.0)) + 0.5 * math.log(c.prior)
                    self.pairs.append(scoring.ScoredPair(span=span, entity_id=c.entity_id,
                                                         prior=c.prior, psi=score))
        self.checked: dict[tuple, bool] = {}

    def shapes(self) -> dict:
        h = hashlib.sha256()
        for p in self.pairs:
            h.update(f"{p.span.doc_id} {p.span.start} {p.span.end} {p.entity_id} "
                     f"{p.score!r}\n".encode("utf-8"))
        thresholds = len({p.score for p in checks.best_per_span(self.pairs)}) + 1
        return {**input_shapes(self.docs, self.index), "thresholds": thresholds,
                "scored_pairs": len(self.pairs), "scores_sha256": h.hexdigest()}

    def op_labels(self) -> list:
        return ["strong", "weak"]

    def run_op(self, mode):
        return inference.select_threshold(self.pairs, self.gold, mode=mode)

    def check_op(self, mode, delta) -> bool:
        key = (mode, delta)
        if key not in self.checked:
            self.checked[key] = checks.threshold_is_best(
                self.pairs, self.gold, mode, delta, inputs.stream(self.seed, "check"))
        return self.checked[key]

    def summary(self, records) -> dict:
        out = {}
        best = checks.best_per_span(self.pairs)
        for mode in ("strong", "weak"):
            rs = [r for r in records if r[0] == mode]
            out[f"sweep_{mode}_s"] = statistics.median(r[1] for r in rs)
            out[f"micro_f1_{mode}"] = checks.micro_f1(checks.decode(best, rs[0][3]),
                                                      self.gold, mode)
        pair_s = out["sweep_strong_s"] + out["sweep_weak_s"]
        tokens = sum(len(d.tokens) for d in self.docs)
        out["docs_per_s"] = 2 * len(self.docs) / pair_s
        out["tokens_per_s"] = 2 * tokens / pair_s
        return out


WORKLOADS = {w.name: w for w in (TrainPaper, AnnotateToy, ThresholdSweep)}
