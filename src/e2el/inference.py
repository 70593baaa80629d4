"""Threshold tuning, greedy decoding and strong/weak matching F1.

Decoding keeps each span's best candidate, drops spans at or below the
threshold, and sweeps the survivors by descending score, emitting a span
only when it shares no token with a previously emitted one. Each accept
decision depends only on the spans ranked above it, so the decode at a
threshold delta is the delta = -inf decode restricted to scores above delta:
raising delta removes a suffix of the descending sweep. The threshold is
picked on a validation set by maximizing micro F1 over every behaviorally
distinct candidate value (ties go to the larger delta); by that prefix
property one decode and one evaluation serve every candidate.

Annotation files are JSON lines ``{doc_id, start, end, entity, score}``
sorted by (doc_id, start).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .corpus import text_lines
from .scoring import ScoredPair


@dataclass(frozen=True, slots=True)
class Annotation:
    doc_id: str
    start: int
    end: int
    entity_id: str | None  # None marks an unlinkable span from ED decoding
    score: float


@dataclass
class EvalReport:
    mode: str
    task: str
    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_doc: dict[str, tuple[int, int, int]] = field(default_factory=dict)  # tp, fp, fn

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "task": self.task,
            "micro": {"precision": self.micro_precision, "recall": self.micro_recall,
                      "f1": self.micro_f1},
            "macro": {"precision": self.macro_precision, "recall": self.macro_recall,
                      "f1": self.macro_f1},
            "per_doc": {doc: {"tp": c[0], "fp": c[1], "fn": c[2]}
                        for doc, c in self.per_doc.items()},
        }

    def format_table(self) -> str:
        rows = [
            f"task {self.task}, {self.mode} matching",
            f"  micro  P {self.micro_precision:.4f}  R {self.micro_recall:.4f}  "
            f"F1 {self.micro_f1:.4f}",
            f"  macro  P {self.macro_precision:.4f}  R {self.macro_recall:.4f}  "
            f"F1 {self.macro_f1:.4f}",
            f"  documents: {len(self.per_doc)}",
        ]
        return "\n".join(rows)


def best_per_span(pairs: Sequence[ScoredPair]) -> list[ScoredPair]:
    """Argmax candidate per span; ties go to higher prior, then entity id."""
    by_span: dict[tuple[str, int, int], list[ScoredPair]] = {}
    for p in pairs:
        by_span.setdefault((p.span.doc_id, p.span.start, p.span.end), []).append(p)
    return [min(by_span[key], key=lambda p: (-p.score, -p.prior, p.entity_id))
            for key in sorted(by_span)]


def greedy_decode(pairs: Sequence[ScoredPair], delta: float) -> list[Annotation]:
    """Non-overlapping annotations with score above the threshold.

    The per-span best candidates above `delta` are swept in descending
    score order (ties: earlier start, shorter span, entity id); a span is
    emitted only when none of its tokens are already taken.
    """
    survivors = [p for p in best_per_span(pairs) if p.score > delta]
    survivors.sort(key=lambda p: (-p.score, p.span.start,
                                  p.span.end - p.span.start, p.entity_id))
    taken: dict[str, set[int]] = {}
    out = []
    for p in survivors:
        tokens = set(range(p.span.start, p.span.end + 1))
        used = taken.setdefault(p.span.doc_id, set())
        if tokens & used:
            continue
        used |= tokens
        out.append(Annotation(doc_id=p.span.doc_id, start=p.span.start, end=p.span.end,
                              entity_id=p.entity_id, score=p.score))
    out.sort(key=lambda a: (a.doc_id, a.start, a.end))
    return out


def threshold_candidates(pairs: Sequence[ScoredPair]) -> list[float]:
    """Every behaviorally distinct threshold, high to low: each observed
    best-per-span score, then -inf."""
    return _descending_thresholds(best_per_span(pairs))


def _descending_thresholds(best: Sequence[ScoredPair]) -> list[float]:
    return sorted({p.score for p in best} | {float("-inf")}, reverse=True)


def select_threshold(pairs: Sequence[ScoredPair],
                     gold: Mapping[str, Sequence[tuple[int, int, str]]],
                     mode: str = "strong") -> float:
    """Threshold maximizing micro F1 on the given scored dev pairs.

    Candidates are every observed best-per-span score plus -inf (keep
    everything), including the score of a span that loses an overlap; ties
    break toward the larger threshold, i.e. fewer annotations. The decode
    at delta keeps exactly the -inf decode's annotations scoring above
    delta, so each span's best pair is found once, decoded and evaluated
    once, and the candidates are swept from high to low, adding those
    annotations and rematching only the documents that gained one. Micro
    F1 comes from the same integer counts as `evaluate`'s, so the pick
    equals that of decoding and evaluating at every candidate. A NaN score
    has no place in that order and raises ValueError, as do a bad mode and
    a pair from a document missing from `gold`.
    """
    if not pairs:
        raise ValueError("empty dev set")
    for p in pairs:
        if math.isnan(p.score):
            raise ValueError(f"document {p.span.doc_id!r}: span {p.span.start}-{p.span.end} "
                             f"scores NaN for entity {p.entity_id!r}")
    best = best_per_span(pairs)  # decoding them gives the same annotations as all pairs
    kept = greedy_decode(best, float("-inf"))
    evaluate(kept, gold, mode=mode)  # validates the mode and the documents
    kept.sort(key=lambda a: -a.score)
    golds = {doc_id: list(gold[doc_id]) for doc_id in gold}
    preds: dict[str, list[Annotation]] = {doc_id: [] for doc_id in gold}
    counts = {doc_id: (0, 0, len(golds[doc_id])) for doc_id in gold}
    tp, fp, fn = 0, 0, sum(c[2] for c in counts.values())
    best_delta = float("-inf")
    best_f1 = -1.0
    i = 0
    for delta in _descending_thresholds(best):
        changed = set()
        while i < len(kept) and kept[i].score > delta:
            preds[kept[i].doc_id].append(kept[i])
            changed.add(kept[i].doc_id)
            i += 1
        for doc_id in changed:
            old, counts[doc_id] = counts[doc_id], _match_doc(preds[doc_id], golds[doc_id], mode)
            tp += counts[doc_id][0] - old[0]
            fp += counts[doc_id][1] - old[1]
            fn += counts[doc_id][2] - old[2]
        f1 = _prf(tp, fp, fn)[2]
        if f1 > best_f1:
            best_f1 = f1
            best_delta = delta
    return best_delta


def decode_ed(model, doc, spans) -> list[Annotation]:
    """Disambiguate given spans: every span gets its argmax candidate.

    The threshold plays no role; spans without candidates are emitted
    unlinked (entity None) so recall accounting can see them.
    """
    scorable = [s for s in spans if s.candidates]
    pairs = model.score_pairs(doc, scorable) if scorable else []
    out = [Annotation(doc_id=p.span.doc_id, start=p.span.start, end=p.span.end,
                      entity_id=p.entity_id, score=p.score)
           for p in best_per_span(pairs)]
    for s in spans:
        if not s.candidates:
            out.append(Annotation(doc_id=s.doc_id, start=s.start, end=s.end,
                                  entity_id=None, score=float("-inf")))
    out.sort(key=lambda a: (a.doc_id, a.start, a.end))
    return out


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp > 0 else 1.0
    r = tp / (tp + fn) if tp + fn > 0 else 1.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def _match_doc(preds: list[Annotation], golds: list[tuple[int, int, str]],
               mode: str) -> tuple[int, int, int]:
    """Greedy pairing in document order; each gold matches at most once."""
    consumed = [False] * len(golds)
    tp = 0
    for a in sorted(preds, key=lambda a: (a.start, a.end, a.entity_id or "")):
        for i, (gs, ge, gent) in enumerate(golds):
            if consumed[i] or gent != a.entity_id:
                continue
            if mode == "strong":
                hit = (gs, ge) == (a.start, a.end)
            else:
                hit = a.start <= ge and gs <= a.end
            if hit:
                consumed[i] = True
                tp += 1
                break
    fp = len(preds) - tp
    fn = len(golds) - tp
    return tp, fp, fn


def evaluate(pred: Sequence[Annotation],
             gold: Mapping[str, Sequence[tuple[int, int, str]]],
             mode: str = "strong", task: str = "EL") -> EvalReport:
    """Micro and macro P/R/F1 under strong (exact span) or weak (token
    overlap) matching; a document with no gold and no predictions scores a
    perfect 1.0. Unlinked predictions (entity None) never match and are not
    counted as predictions."""
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown matching mode {mode!r}")
    by_doc: dict[str, list[Annotation]] = {doc: [] for doc in gold}
    seen: set[tuple[str, int, int, str]] = set()
    for a in pred:
        if a.doc_id not in by_doc:
            raise ValueError(f"annotation references unknown document {a.doc_id!r}")
        if a.entity_id is None:
            continue
        key = (a.doc_id, a.start, a.end, a.entity_id)
        if key in seen:
            raise ValueError(f"duplicate prediction {key}")
        seen.add(key)
        by_doc[a.doc_id].append(a)

    per_doc: dict[str, tuple[int, int, int]] = {}
    macro_p = macro_r = macro_f = 0.0
    total_tp = total_fp = total_fn = 0
    for doc_id in gold:
        tp, fp, fn = _match_doc(by_doc[doc_id], list(gold[doc_id]), mode)
        per_doc[doc_id] = (tp, fp, fn)
        total_tp += tp
        total_fp += fp
        total_fn += fn
        p, r, f = _prf(tp, fp, fn)
        macro_p += p
        macro_r += r
        macro_f += f
    n_docs = max(len(per_doc), 1)
    micro_p, micro_r, micro_f = _prf(total_tp, total_fp, total_fn)
    return EvalReport(
        mode=mode, task=task,
        micro_precision=micro_p, micro_recall=micro_r, micro_f1=micro_f,
        macro_precision=macro_p / n_docs, macro_recall=macro_r / n_docs,
        macro_f1=macro_f / n_docs, per_doc=per_doc)


# ---------------------------------------------------------------------------
# annotation files


def write_annotations(annotations: Iterable[Annotation], path: str) -> None:
    ordered = sorted(annotations, key=lambda a: (a.doc_id, a.start, a.end))
    with open(path, "w", encoding="utf-8") as fh:
        for a in ordered:
            score = a.score if math.isfinite(a.score) else None
            fh.write(json.dumps({"doc_id": a.doc_id, "start": a.start, "end": a.end,
                                 "entity": a.entity_id, "score": score}) + "\n")


def read_annotations(path: str) -> list[Annotation]:
    out = []
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            for key in ("start", "end"):
                if type(rec[key]) is not int:
                    raise ValueError(f"{key} {rec[key]!r} is not an integer")
            out.append(Annotation(doc_id=rec["doc_id"], start=rec["start"],
                                  end=rec["end"], entity_id=rec["entity"],
                                  score=float("-inf") if rec.get("score") is None
                                  else float(rec["score"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: bad annotation record: {exc}") from None
    return out
