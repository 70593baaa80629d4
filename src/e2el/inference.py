"""Corpus scoring, threshold tuning, greedy decoding and strong/weak
matching F1. Every corpus (annotate, select-threshold, the dev
evaluation, ED decoding) is scored by `score_corpus`.

Decoding keeps each span's best candidate, drops spans at or below the
threshold, and sweeps the survivors by descending score, emitting a span
only when it shares no token with a previously emitted one. Each accept
decision depends only on the spans ranked above it, so the decode at a
threshold delta is the delta = -inf decode restricted to scores above delta:
raising delta removes a suffix of the descending sweep. The threshold is
picked on a validation set by maximizing micro F1 over every behaviorally
distinct candidate value (ties go to the larger delta); by that prefix
property one decode and one evaluation serve every candidate.

Lowering delta then adds one annotation at a time, and the counts follow
without a rematch of the document. The decoded annotations share no
token, so under strong (exact span) matching each one matches its own
(start, end, entity) gold or nothing: TP or FP grows by exactly one. Weak
(overlap) matching pairs an annotation only with golds of its entity, so
only the (document, entity) group that gained the annotation is matched
again.

Annotation files are JSON lines ``{doc_id, start, end, entity, score}``
sorted by (doc_id, start).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .candidates import MentionSpan
from .corpus import Document, text_lines
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
    """Argmax candidate per span, in (doc_id, start, end) order; ties go to
    higher prior, then entity id, then the earlier pair."""
    return _best_by_span(pairs)[0]


def _best_by_span(pairs: Sequence[ScoredPair]) -> tuple[list[ScoredPair], ScoredPair | None]:
    """`best_per_span`'s list, and the first pair scoring NaN if any.

    One pass keeps each span's best so far and replaces it only when the
    pair's key (-score, -prior, entity_id) is strictly smaller, which is
    what `min` over the span's pairs picks. The key is compared score
    first: a NaN score is neither greater nor equal, just as a tuple with
    it never compares smaller. Pairs of one span usually come together,
    so the span's dict entry is looked up once per run of them.
    """
    best: dict[tuple[str, int, int], tuple[float, ScoredPair]] = {}
    nan = None
    span = cur = key = None
    for p in pairs:
        score = p.score
        if score != score and nan is None:
            nan = p
        if p.span is not span:
            span = p.span
            key = (span.doc_id, span.start, span.end)
            cur = best.get(key)
        if cur is None or score > cur[0] or (
                score == cur[0] and (-p.prior, p.entity_id) < (-cur[1].prior, cur[1].entity_id)):
            cur = best[key] = (score, p)
    return [best[key][1] for key in sorted(best)], nan


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
    annotations to running counts:

    - Strong matching is additive. The decode's annotations share no
      token, so no two of them can claim the same exact-span gold: each
      one matches a gold with its own (start, end, entity) or nothing,
      and adding it adds 1 to TP or to FP.
    - Weak matching splits by entity. `_match_doc` pairs an annotation
      only with golds of its own entity, so a document's TP is the sum of
      its (document, entity) groups' TPs. Adding an annotation rematches
      only its own group, and the change in that group's TP updates the
      running count. (It can be 0 when the newcomer, earlier in document
      order, takes the gold that an annotation of the group already held.)

    Micro F1 comes from the same integer counts as `evaluate`'s, so the pick
    equals that of decoding and evaluating at every candidate. A NaN score
    has no place in that order and raises ValueError, as do a bad mode and
    a pair from a document missing from `gold`.
    """
    if not pairs:
        raise ValueError("empty dev set")
    best, nan = _best_by_span(pairs)  # decoding them gives the same annotations as all pairs
    if nan is not None:
        raise ValueError(f"document {nan.span.doc_id!r}: span {nan.span.start}-{nan.span.end} "
                         f"scores NaN for entity {nan.entity_id!r}")
    kept = greedy_decode(best, float("-inf"))
    evaluate(kept, gold, mode=mode)  # validates the mode and the documents
    kept.sort(key=lambda a: -a.score)
    golds: dict[tuple[str, str], list[tuple[int, int, str]]] = {}
    for doc_id, doc_gold in gold.items():
        for g in doc_gold:
            golds.setdefault((doc_id, g[2]), []).append(g)
    preds: dict[tuple[str, str], list[Annotation]] = {}
    group_tp: dict[tuple[str, str], int] = {}
    n_gold = sum(len(g) for g in gold.values())
    tp = 0
    best_delta = float("-inf")
    best_f1 = -1.0
    i = 0
    for delta in sorted({p.score for p in best} | {float("-inf")}, reverse=True):
        while i < len(kept) and kept[i].score > delta:
            a = kept[i]
            i += 1
            group = (a.doc_id, a.entity_id)
            if group not in golds:
                continue
            if mode == "strong":
                tp += any((gs, ge) == (a.start, a.end) for gs, ge, _ in golds[group])
            else:
                members = preds.setdefault(group, [])
                members.append(a)
                group_new = _match_doc(members, golds[group], mode)[0]
                tp += group_new - group_tp.get(group, 0)
                group_tp[group] = group_new
        f1 = _prf(tp, i - tp, n_gold - tp)[2]
        if f1 > best_f1:
            best_f1 = f1
            best_delta = delta
    return best_delta


def score_corpus(model, docs: Sequence[Document],
                 spans: Sequence[Sequence[MentionSpan]]) -> list[ScoredPair]:
    """`model.score_pairs` of every document with its spans (`spans[i]` for
    `docs[i]`), in corpus order."""
    return [p for doc, doc_spans in zip(docs, spans, strict=True)
            for p in model.score_pairs(doc, doc_spans)]


def decode_ed(model, docs: Sequence[Document],
              spans: Sequence[Sequence[MentionSpan]]) -> list[Annotation]:
    """Disambiguate given spans (`spans[i]` for `docs[i]`): every span gets
    its argmax candidate.

    The threshold plays no role; spans without candidates are emitted
    unlinked (entity None) so recall accounting can see them. A document
    none of whose spans has a candidate is not scored.
    """
    scorable = [(doc, kept) for doc, doc_spans in zip(docs, spans, strict=True)
                if (kept := [s for s in doc_spans if s.candidates])]
    pairs = score_corpus(model, [doc for doc, _ in scorable], [kept for _, kept in scorable])
    out = [Annotation(doc_id=p.span.doc_id, start=p.span.start, end=p.span.end,
                      entity_id=p.entity_id, score=p.score)
           for p in best_per_span(pairs)]
    out += [Annotation(doc_id=s.doc_id, start=s.start, end=s.end, entity_id=None,
                       score=float("-inf"))
            for doc_spans in spans for s in doc_spans if not s.candidates]
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

    per_doc = {doc_id: _match_doc(by_doc[doc_id], list(gold[doc_id]), mode) for doc_id in gold}
    micro_p, micro_r, micro_f = _prf(*(sum(c[k] for c in per_doc.values()) for k in range(3)))
    doc_prf = [_prf(*counts) for counts in per_doc.values()]
    n_docs = max(len(per_doc), 1)
    macro_p, macro_r, macro_f = (sum(prf[k] for prf in doc_prf) / n_docs for k in range(3))
    return EvalReport(
        mode=mode, task=task,
        micro_precision=micro_p, micro_recall=micro_r, micro_f1=micro_f,
        macro_precision=macro_p, macro_recall=macro_r, macro_f1=macro_f, per_doc=per_doc)


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
            if not 0 <= rec["start"] <= rec["end"]:
                raise ValueError(f"start {rec['start']} and end {rec['end']} break "
                                 f"0 <= start <= end")
            if type(rec["doc_id"]) is not str:
                raise ValueError(f"doc_id {rec['doc_id']!r} is not a string")
            if rec["entity"] is not None and type(rec["entity"]) is not str:
                raise ValueError(f"entity {rec['entity']!r} is neither a string nor null")
            out.append(Annotation(doc_id=rec["doc_id"], start=rec["start"],
                                  end=rec["end"], entity_id=rec["entity"],
                                  score=float("-inf") if rec.get("score") is None
                                  else float(rec["score"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: bad annotation record: {exc}") from None
    return out
