"""Outside-in tracing of the e2el layers.

`Tracer.install()` replaces public functions of the `e2el` modules with
wrappers that record one span per call: name, start, end and the index of
the enclosing span. Each function is patched where its caller looks it up:
`model.py` binds `encode_document` and `mention_repr` by ``from ... import``,
so those are patched on `e2el.model`; `scoring.*`, `inference.*` and
`autodiff.*` are looked up as module attributes and patched there.
`uninstall()` restores every original.

Self time is a span's duration minus the time its child spans cover. The
program is single-threaded, so children of one span never overlap and the
covered time is the sum of their durations.

Some wrappers also count what passes through them (spans, pairs, voters,
graph nodes). That counting runs inside a ``trace.hooks`` span so its cost
is attributed to tracing, not to the layer that called the function.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable

from e2el import autodiff


def _coref_hook(tracer: "Tracer", args, result) -> None:
    doc = args[1]
    tracer.count["candidates.spans"] += len(result)
    tracer.count["candidates.pairs"] += sum(len(s.candidates) for s in result)
    by_span = {(s.start, s.end): {c.entity_id for c in s.candidates} for s in result}
    tracer.count["candidates.gold_pairs"] += len(doc.gold)
    tracer.count["candidates.gold_covered"] += sum(
        1 for s, e, ent in doc.gold if ent in by_span.get((s, e), ()))


def _encode_hook(tracer: "Tracer", args, result) -> None:
    tracer.count["encoder.tokens"] += len(args[0].tokens)


def _voters_hook(tracer: "Tracer", args, result) -> None:
    tracer.count["scoring.voters"] += len(result)


def _threshold_hook(tracer: "Tracer", args, result) -> None:
    best: dict[tuple, float] = {}
    for p in args[0]:
        key = (p.span.doc_id, p.span.start, p.span.end)
        best[key] = max(best.get(key, float("-inf")), p.score)
    tracer.count["inference.thresholds"] += len(set(best.values())) + 1


def _graph_hook(tracer: "Tracer", args, result) -> None:
    """Nodes reachable from the loss through parent links."""
    seen = {id(args[0])}
    todo = [args[0]]
    while todo:
        node = todo.pop()
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    tracer.count["autodiff.graph_nodes"] += len(seen)


# (module or class, attribute, span name, hook run after the call)
LAYERS: list[tuple[str, str, str, Callable | None]] = [
    ("e2el.cli", "parse_corpus_jsonl", "corpus.parse_corpus_jsonl", None),
    ("e2el.embeddings", "load_text_embeddings", "embeddings.load_text_embeddings", None),
    ("e2el.embeddings", "load_binary_embeddings", "embeddings.load_binary_embeddings", None),
    ("e2el.candidates", "load_any_index", "candidates.load_any_index", None),
    ("e2el.training", "load_checkpoint", "training.load_checkpoint", None),
    ("e2el.candidates", "enumerate_spans", "candidates.enumerate_spans", None),
    ("e2el.candidates", "apply_coreference_heuristic",
     "candidates.apply_coreference_heuristic", _coref_hook),
    ("e2el.training", "enumerate_spans", "candidates.enumerate_spans", None),
    ("e2el.training", "apply_coreference_heuristic",
     "candidates.apply_coreference_heuristic", _coref_hook),
    ("e2el.model", "encode_document", "encoder.encode_document", _encode_hook),
    ("e2el.encoder", "char_embed", "encoder.char_embed", None),
    ("e2el.model", "mention_repr", "encoder.mention_repr", None),
    ("e2el.scoring", "local_score", "scoring.local_score", None),
    ("e2el.scoring", "long_range_feature", "scoring.long_range_feature", None),
    ("e2el.scoring", "filter_voters", "scoring.filter_voters", _voters_hook),
    ("e2el.scoring", "vote_vector", "scoring.vote_vector", None),
    ("e2el.scoring", "global_score", "scoring.global_score", None),
    ("e2el.scoring", "combine_global", "scoring.combine_global", None),
    ("e2el.model:LinkingModel", "pair_scores", "model.pair_scores", None),
    ("e2el.model:LinkingModel", "score_pairs", "model.score_pairs", None),
    ("e2el.autodiff", "backward", "autodiff.backward", _graph_hook),
    ("e2el.autodiff", "adam_step", "autodiff.adam_step", None),
    ("e2el.training", "document_loss", "training.document_loss", None),
    ("e2el.training", "_dev_eval", "training.dev_eval", None),
    ("e2el.inference", "select_threshold", "inference.select_threshold", _threshold_hook),
    ("e2el.inference", "greedy_decode", "inference.greedy_decode", None),
    ("e2el.inference", "evaluate", "inference.evaluate", None),
]

HOOK_SPAN = "trace.hooks"


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.count: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                h = self.open(HOOK_SPAN)
                try:
                    hook(self, args, result)
                finally:
                    self.close(h)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target, attr, name, hook in LAYERS:
            owner = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        tensor_init = autodiff.Tensor.__init__
        count = self.count

        def counting_init(obj, *args, **kwargs):
            count["autodiff.tensors"] += 1
            tensor_init(obj, *args, **kwargs)
        self._saved.append((autodiff.Tensor, "__init__", tensor_init))
        autodiff.Tensor.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries ---------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_coverage", "_ratio")):
        return "ratio"
    return "count"


def layer_metrics(table: dict[str, dict[str, float]], count: dict[str, int],
                  setup_table: dict[str, dict[str, float]], setups: int,
                  units: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json.

    Times and counts are per unit of work (an Adam step, a document or a
    sweep); loader times are per set-up; shares are ratios of counts.
    """
    def get(tab, name, key):
        return tab.get(name, {}).get(key, 0.0)

    def per_unit(value):
        return value / units

    def ratio(a, b):
        return a / b if b else 0.0

    setup_s = {name: row["total_s"] / setups for name, row in setup_table.items()}
    return {
        "corpus.load_s": setup_s.get("corpus.parse_corpus_jsonl", 0.0),
        "embeddings.load_s": setup_s.get("embeddings.load_text_embeddings", 0.0)
        + setup_s.get("embeddings.load_binary_embeddings", 0.0),
        "candidates.load_index_s": setup_s.get("candidates.load_any_index", 0.0),
        "training.load_checkpoint_s": setup_s.get("training.load_checkpoint", 0.0),
        "candidates.spans_s": per_unit(get(table, "candidates.enumerate_spans", "total_s")
                                       + get(table, "candidates.apply_coreference_heuristic",
                                             "total_s")),
        "candidates.spans": per_unit(count.get("candidates.spans", 0)),
        "candidates.pairs": per_unit(count.get("candidates.pairs", 0)),
        "candidates.gold_coverage": ratio(count.get("candidates.gold_covered", 0),
                                          count.get("candidates.gold_pairs", 0)),
        "encoder.encode_self_s": per_unit(get(table, "encoder.encode_document", "self_s")),
        "encoder.char_s": per_unit(get(table, "encoder.char_embed", "total_s")),
        "encoder.char_calls": per_unit(get(table, "encoder.char_embed", "calls")),
        "encoder.unique_token_share": ratio(get(table, "encoder.char_embed", "calls"),
                                            count.get("encoder.tokens", 0)),
        "encoder.mention_repr_s": per_unit(get(table, "encoder.mention_repr", "total_s")),
        "encoder.mention_repr_calls": per_unit(get(table, "encoder.mention_repr", "calls")),
        "scoring.local_s": per_unit(get(table, "scoring.local_score", "total_s")),
        "scoring.local_calls": per_unit(get(table, "scoring.local_score", "calls")),
        "scoring.attention_s": per_unit(get(table, "scoring.long_range_feature", "total_s")),
        "scoring.attention_calls": per_unit(get(table, "scoring.long_range_feature", "calls")),
        "scoring.global_s": per_unit(sum(get(table, n, "total_s") for n in (
            "scoring.vote_vector", "scoring.global_score", "scoring.combine_global"))),
        "scoring.voters": per_unit(count.get("scoring.voters", 0)),
        "model.pair_scores_self_s": per_unit(get(table, "model.pair_scores", "self_s")),
        "autodiff.backward_s": per_unit(get(table, "autodiff.backward", "total_s")),
        "autodiff.adam_s": per_unit(get(table, "autodiff.adam_step", "total_s")),
        "autodiff.graph_nodes": ratio(count.get("autodiff.graph_nodes", 0),
                                      get(table, "autodiff.backward", "calls")),
        "autodiff.tensors": per_unit(count.get("autodiff.tensors", 0)),
        "training.document_loss_self_s": per_unit(get(table, "training.document_loss",
                                                      "self_s")),
        "training.dev_eval_s": per_unit(get(table, "training.dev_eval", "total_s")),
        "inference.select_threshold_s": per_unit(get(table, "inference.select_threshold",
                                                     "total_s")),
        "inference.thresholds": ratio(count.get("inference.thresholds", 0),
                                      get(table, "inference.select_threshold", "calls")),
        "inference.greedy_decode_calls": per_unit(get(table, "inference.greedy_decode",
                                                      "calls")),
        "inference.greedy_decode_s": per_unit(get(table, "inference.greedy_decode", "total_s")),
        "inference.evaluate_calls": per_unit(get(table, "inference.evaluate", "calls")),
        "inference.evaluate_s": per_unit(get(table, "inference.evaluate", "total_s")),
    }
