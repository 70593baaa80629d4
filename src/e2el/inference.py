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
without a rematch of the document. Both `evaluate` and the sweep count
true positives with one matcher, `_tp_gains`. What each step of a sweep
over P pairs, S spans, A kept annotations and G golds costs:

- one best-per-span pass, O(P), reading each pair's score once;
- one decode, O(S log S): one sort of plain tuples and a bytearray of
  taken tokens per document;
- strong counts, O(A + G): each annotation matches the gold with its own
  exact (document, start, end, entity) key or nothing, one set lookup;
- weak counts: an annotation pairs only with golds of its entity, so each
  (document, entity) group matches alone. A newcomer takes its first
  overlapping gold not held by an annotation before it in (start, end)
  order, and displaces the later annotation holding it, which picks again
  down a chain (`_take_gold`). The chain is at most as long as the
  group's annotations after the newcomer, and all its picks together scan
  the group's golds once;
- one evaluation, which runs the same matcher over the annotations in
  input order, and one more run of it in score order for the sweep.

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
    return [p for _, p in _best_by_span(pairs)[0]]


def _best_by_span(pairs: Sequence[ScoredPair]
                  ) -> tuple[list[tuple[float, ScoredPair]], ScoredPair | None]:
    """Each span's (score, best pair) in `best_per_span`'s order, and the
    first pair scoring NaN if any.

    One pass keeps each span's best so far and replaces it only when the
    pair's key (-score, -prior, entity_id) is strictly smaller, which is
    what `min` over the span's pairs picks. The key is compared score
    first: a NaN score is neither greater nor equal, just as a tuple with
    it never compares smaller. Pairs of one span usually come together,
    so the span's dict entry is looked up once per run of them. Each
    pair's score is read from `phi`/`psi` once, as `ScoredPair.score` does.
    """
    best: dict[tuple[str, int, int], tuple[float, ScoredPair]] = {}
    nan = None
    span = cur = key = None
    for p in pairs:
        score = p.phi
        if score is None:
            score = p.psi
        if score != score and nan is None:
            nan = p
        if p.span is not span:
            span = p.span
            key = (span.doc_id, span.start, span.end)
            cur = best.get(key)
        if cur is None or score > cur[0] or (
                score == cur[0] and (-p.prior, p.entity_id) < (-cur[1].prior, cur[1].entity_id)):
            cur = best[key] = (score, p)
    return [best[key] for key in sorted(best)], nan


def greedy_decode(pairs: Sequence[ScoredPair], delta: float) -> list[Annotation]:
    """Non-overlapping annotations with score above the threshold.

    The per-span best candidates above `delta` are swept in descending
    score order (ties: earlier start, shorter span, entity id, then
    document order); a span is emitted only when none of its tokens are
    already taken. Token offsets are non-negative.
    """
    best = _best_by_span(pairs)[0]
    ranked = sorted((-score, p.span.start, p.span.end - p.span.start, p.entity_id, i)
                    for i, (score, p) in enumerate(best) if score > delta)
    taken: dict[str, bytearray] = {}  # per document, 1 at each taken token
    kept = bytearray(len(best))
    for _, start, length, _, i in ranked:
        doc_id = best[i][1].span.doc_id
        used = taken.get(doc_id)
        if used is None:
            used = taken[doc_id] = bytearray()
        stop = start + length + 1
        if len(used) < stop:
            used.extend(bytes(stop - len(used)))
        if used.find(1, start, stop) < 0:
            used[start:stop] = b"\x01" * (stop - start)
            kept[i] = 1
    return [Annotation(p.span.doc_id, p.span.start, p.span.end, p.entity_id, score)
            for (score, p), k in zip(best, kept) if k]


def select_threshold(pairs: Sequence[ScoredPair],
                     gold: Mapping[str, Sequence[tuple[int, int, str]]],
                     mode: str = "strong") -> float:
    """Threshold maximizing micro F1 on the given scored dev pairs.

    Candidates are every observed best-per-span score plus -inf (keep
    everything), including the score of a span that loses an overlap; ties
    break toward the larger threshold, i.e. fewer annotations. The decode
    at delta keeps exactly the -inf decode's annotations scoring above
    delta, so each span's best pair is found once, decoded and evaluated
    once, and the annotations are added from high to low score, each
    adding 0 or 1 to TP (`_tp_gains`); the candidates are swept over the
    running count. A candidate that adds no annotation has the counts, so
    the F1, of the larger one before it, which wins the tie: F1 is computed
    only where an annotation was added.

    Micro F1 comes from `evaluate`'s matcher, so the pick equals that of
    decoding and evaluating at every candidate. A NaN score has no place in
    that order and raises ValueError, as do a bad mode and a pair from a
    document missing from `gold`.
    """
    if not pairs:
        raise ValueError("empty dev set")
    best, nan = _best_by_span(pairs)
    if nan is not None:
        raise ValueError(f"document {nan.span.doc_id!r}: span {nan.span.start}-{nan.span.end} "
                         f"scores NaN for entity {nan.entity_id!r}")
    # decoding the best pairs gives the same annotations as decoding all pairs
    kept = greedy_decode([p for _, p in best], float("-inf"))
    evaluate(kept, gold, mode=mode)  # validates the mode and the documents
    kept.sort(key=lambda a: -a.score)
    gains = _tp_gains(kept, gold, mode)
    n_gold = sum(len(g) for g in gold.values())
    tp = 0
    best_delta = float("-inf")
    best_f1 = -1.0
    i = 0
    scored = -1  # the kept count whose F1 was last computed
    for delta in sorted({score for score, _ in best} | {float("-inf")}, reverse=True):
        while i < len(kept) and kept[i].score > delta:
            tp += gains[i]
            i += 1
        if i == scored:
            continue
        scored = i
        f1 = _prf(tp, i - tp, n_gold - tp)[2]
        if f1 > best_f1:
            best_f1 = f1
            best_delta = delta
    return best_delta


def _tp_gains(kept: Sequence[Annotation], gold: Mapping[str, Sequence[tuple[int, int, str]]],
              mode: str) -> list[int]:
    """What each of `kept` adds to TP when the annotations are added in the
    given order: `sum(gains[:i])` is the TP of `kept[:i]`, the same for any
    order of them. The annotations are linked, distinct and of documents in
    `gold`.

    Each gold matches at most once, and only an annotation of its own
    entity.

    - Strong matching: an annotation matches the gold with its own
      (document, start, end, entity) key or nothing; no two distinct
      annotations claim one gold.
    - Weak matching: each (document, entity) group matches alone. Its
      matching is the greedy one in (start, end) order: each annotation
      takes its first overlapping gold (in gold-list order) that no
      annotation before it holds. A newcomer changes only the holders
      after it, so it takes that gold, and if a later annotation held it,
      that one picks again by the same rule, and so on down the chain
      (`_take_gold`). Every pick but the last moves a gold, so TP grows by 1
      only when the chain ends on a gold nobody held.
    """
    if mode == "strong":
        keys = {(doc_id, gs, ge, ent) for doc_id, doc_gold in gold.items()
                for gs, ge, ent in doc_gold}
        return [(a.doc_id, a.start, a.end, a.entity_id) in keys for a in kept]
    groups: dict[str, dict[str, list[list]]] = {doc_id: {} for doc_id in gold}
    for doc_id, doc_gold in gold.items():
        by_entity = groups[doc_id]
        for gs, ge, ent in doc_gold:
            by_entity.setdefault(ent, []).append([gs, ge, None])
    return [0 if (golds := groups[a.doc_id].get(a.entity_id)) is None
            else _take_gold(golds, (a.start, a.end)) for a in kept]


def _take_gold(golds: list[list], span: tuple[int, int]) -> int:
    """Add the annotation `span` (start, end) to one weak-matching group and
    return its TP gain, 0 or 1.

    Each entry of `golds` is a gold's [start, end, holder], where holder is
    the (start, end) of the annotation holding it, or None. The group's
    annotations are distinct, so their (start, end) keys order them
    totally, and the holders are the greedy matching in that order
    whatever order the annotations came in. A displaced annotation picks
    again from just after the gold it lost: every gold before that one that
    it overlaps was held by an annotation before it, and still is.
    """
    start, end = span
    j = 0
    while True:
        for j in range(j, len(golds)):
            gs, ge, holder = golds[j]
            if start <= ge and gs <= end and (holder is None or holder > span):
                break
        else:
            return 0
        golds[j][2] = span
        if holder is None:
            return 1
        span = holder
        start, end = span
        j += 1


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


def evaluate(pred: Sequence[Annotation],
             gold: Mapping[str, Sequence[tuple[int, int, str]]],
             mode: str = "strong", task: str = "EL") -> EvalReport:
    """Micro and macro P/R/F1 under strong (exact span) or weak (token
    overlap) matching; a document with no gold and no predictions scores a
    perfect 1.0. Unlinked predictions (entity None) never match and are not
    counted as predictions."""
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown matching mode {mode!r}")
    n_pred = dict.fromkeys(gold, 0)
    linked: list[Annotation] = []
    seen: set[tuple[str, int, int, str]] = set()
    for a in pred:
        if a.doc_id not in n_pred:
            raise ValueError(f"annotation references unknown document {a.doc_id!r}")
        if a.entity_id is None:
            continue
        key = (a.doc_id, a.start, a.end, a.entity_id)
        if key in seen:
            raise ValueError(f"duplicate prediction {key}")
        seen.add(key)
        n_pred[a.doc_id] += 1
        linked.append(a)

    tp = dict.fromkeys(gold, 0)
    for a, gain in zip(linked, _tp_gains(linked, gold, mode)):
        if gain:
            tp[a.doc_id] += 1
    per_doc = {doc_id: (tp[doc_id], n_pred[doc_id] - tp[doc_id], len(gold[doc_id]) - tp[doc_id])
               for doc_id in gold}
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
            score = rec.get("score")
            if score is not None and (type(score) not in (int, float) or score != score):
                raise ValueError(f"score {score!r} must be null or a number other than NaN")
            out.append(Annotation(doc_id=rec["doc_id"], start=rec["start"],
                                  end=rec["end"], entity_id=rec["entity"],
                                  score=float("-inf") if score is None else float(score)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: bad annotation record: {exc}") from None
    return out
