"""Output checks and a reference decoder that share no code with `e2el`.

The reference follows the documented semantics of `e2el.inference`: the
best candidate per span (ties: higher prior, then entity id), survivors
strictly above the threshold swept by descending score (ties: earlier
start, shorter span, entity id) with no shared token, and greedy
document-order matching for micro F1. A rewrite of the program's decoder
or sweep that keeps those semantics passes these checks.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np


def best_per_span(pairs) -> list:
    best: dict[tuple, object] = {}
    for p in pairs:
        key = (p.span.doc_id, p.span.start, p.span.end)
        cur = best.get(key)
        if cur is None or (-p.score, -p.prior, p.entity_id) < \
                (-cur.score, -cur.prior, cur.entity_id):
            best[key] = p
    return list(best.values())


def decode(best: Sequence, delta: float) -> list[tuple[str, int, int, str]]:
    """(doc_id, start, end, entity) annotations from best-per-span pairs."""
    survivors = sorted((p for p in best if p.score > delta),
                       key=lambda p: (-p.score, p.span.start, p.span.end - p.span.start,
                                      p.entity_id))
    taken: dict[str, set[int]] = {}
    out = []
    for p in survivors:
        used = taken.setdefault(p.span.doc_id, set())
        tokens = range(p.span.start, p.span.end + 1)
        if any(t in used for t in tokens):
            continue
        used.update(tokens)
        out.append((p.span.doc_id, p.span.start, p.span.end, p.entity_id))
    return out


def micro_f1(annotations: Sequence[tuple[str, int, int, str]],
             gold: Mapping[str, Sequence[tuple[int, int, str]]], mode: str) -> float:
    by_doc: dict[str, list] = {}
    for doc_id, start, end, entity in annotations:
        by_doc.setdefault(doc_id, []).append((start, end, entity))
    tp = 0
    for doc_id, preds in by_doc.items():
        golds = list(gold[doc_id])
        used = [False] * len(golds)
        for start, end, entity in sorted(preds):
            for i, (gs, ge, gent) in enumerate(golds):
                if used[i] or gent != entity:
                    continue
                hit = (gs, ge) == (start, end) if mode == "strong" else start <= ge and gs <= end
                if hit:
                    used[i] = True
                    tp += 1
                    break
    n_pred = len(annotations)
    n_gold = sum(len(g) for g in gold.values())
    p = tp / n_pred if n_pred else 1.0
    r = tp / n_gold if n_gold else 1.0
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def threshold_is_best(pairs, gold, mode: str, delta: float,
                      rng: np.random.Generator, samples: int = 20) -> bool:
    """δ is -inf or an observed best-per-span score, and its F1 is at least
    the F1 at a seeded sample of the other candidate thresholds."""
    best = best_per_span(pairs)
    candidates = sorted({p.score for p in best})
    if not (delta == float("-inf") or delta in set(candidates)):
        return False
    others = [t for t in [float("-inf")] + candidates if t != delta]
    picked = rng.choice(len(others), size=min(samples, len(others)), replace=False)
    f_delta = micro_f1(decode(best, delta), gold, mode)
    return all(f_delta >= micro_f1(decode(best, others[i]), gold, mode) for i in picked)


def annotations_valid(doc, spans, annotations, delta: float) -> bool:
    """Sorted, non-overlapping, inside the document, above the threshold,
    and each names a candidate of its span."""
    cands = {(s.start, s.end): {c.entity_id for c in s.candidates} for s in spans}
    prev_end = -1
    for a in annotations:
        if a.doc_id != doc.doc_id or not 0 <= a.start <= a.end < len(doc.tokens):
            return False
        if a.start <= prev_end or not a.score > delta:
            return False
        if a.entity_id not in cands.get((a.start, a.end), ()):
            return False
        prev_end = a.end
    return True
