"""Max-margin training loop with early stopping, plus checkpoint io.

Every (span, candidate) pair of a document contributes a hinge: gold pairs
are pushed above the margin, all other candidates below zero. One Adam
step runs per document. The dev set is scored periodically; the decode
threshold is re-tuned each time, the best macro-F1 parameter snapshot is
kept, and training stops after a configured number of evaluations without
significant improvement.

Checkpoint format: magic ``E2EL``, little-endian; per entry a u16 name
length, the UTF-8 name, u8 rank, u32 per dimension, the 32-bit float
payload and a trailing u32 CRC32 of the payload bytes. Entries run to the
end of the file. The string, length and error rules are those of
``binfile``.

Training log records are JSON lines ``{step, loss, dev_macro_f1, delta}``.
"""

from __future__ import annotations

import json
import logging
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import binfile, inference
from .candidates import AliasIndex, MentionSpan, apply_coreference_heuristic, \
    enumerate_spans, spans_for_gold
from .corpus import Document
from .model import PairTable, stack_pair_scores

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"E2EL"


@dataclass
class TrainConfig:
    gamma: float = 0.2
    learning_rate: float = 0.001
    regime: str = "all_spans"  # or "gold_spans"
    eval_every: int = 500
    patience: int = 6
    seed: int = 0
    improvement: float = 1e-4  # minimum macro-F1 gain that counts
    max_steps: int | None = None
    use_coref: bool = True

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be at least 1, got {self.eval_every}")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        if not 0 <= self.improvement < math.inf:
            raise ValueError(f"improvement must be finite and at least 0, got {self.improvement}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be null or at least 1, got {self.max_steps}")
        if self.regime not in ("all_spans", "gold_spans"):
            raise ValueError(f"unknown regime {self.regime!r}")


def violation(score: ad.Tensor, is_gold: bool | np.ndarray, gamma: float) -> ad.Tensor:
    """Hinge pushing gold scores above gamma and the rest below zero: one
    scalar score and a bool, or a vector of scores and a matching gold mask."""
    gold = np.broadcast_to(is_gold, score.shape)
    sign = ad.constant(np.where(gold, -1.0, 1.0))
    return ad.relu(ad.add(ad.mul(score, sign), ad.constant(np.where(gold, gamma, 0.0))))


@dataclass
class LossResult:
    loss: ad.Tensor
    n_pairs: int = 0
    gold_pairs: int = 0
    gold_covered: int = 0  # gold pairs whose entity is among the span's candidates

    @property
    def trainable(self) -> bool:
        return self.loss.requires_grad


def el_spans(doc: Document, index: AliasIndex, use_coref: bool) -> list[MentionSpan]:
    """Every alias span of the document, coreference-resolved when `use_coref`."""
    spans = enumerate_spans(doc, index)
    if use_coref:
        spans = apply_coreference_heuristic(spans, doc)
    return spans


def spans_for_regime(doc: Document, index: AliasIndex, cfg: TrainConfig) -> list[MentionSpan]:
    if cfg.regime == "gold_spans":
        return spans_for_gold(doc, index)
    return el_spans(doc, index, cfg.use_coref)


def document_loss(doc: Document, spans: Sequence[MentionSpan],
                  gold: Sequence[tuple[int, int, str]], model, cfg: TrainConfig,
                  rng: np.random.Generator | None = None,
                  mode: str = "train") -> LossResult:
    """Sum of the violations of every (span, candidate) pair's psi, and of
    its phi when the global layer is on: one hinge over the pair table's
    psi vector followed by its phi vector, with one gold mask over its rows.

    `model.pair_scores` gives a `PairTable`, or a list of `PairScore`
    records (a stand-in scorer), which is stacked into one."""
    gold_set = {(s, e, ent) for s, e, ent in gold}
    uncoverable = gold_set - {(sp.start, sp.end, c.entity_id)
                              for sp in spans for c in sp.candidates}
    for s, e, ent in sorted(uncoverable):
        log.debug("document %s: gold (%d, %d, %s) not coverable by candidates",
                  doc.doc_id, s, e, ent)
    covered = len(gold_set) - len(uncoverable)
    table = model.pair_scores(doc, spans, mode=mode, rng=rng)
    if not table:
        log.warning("document %s: no scorable spans, loss is 0", doc.doc_id)
        return LossResult(loss=ad.constant(np.asarray(0.0, dtype=ad.default_dtype())),
                          gold_pairs=len(gold_set), gold_covered=covered)
    if not isinstance(table, PairTable):
        table = stack_pair_scores(table)
    is_gold = np.array([(span.start, span.end, entity_id) in gold_set
                        for span, entity_id, _ in table.rows])
    scores = table.psi
    if table.phi is not None:
        scores = ad.concat([table.psi, table.phi])
        is_gold = np.concatenate([is_gold, is_gold])
    hinges = violation(scores, is_gold, cfg.gamma)
    return LossResult(loss=ad.sum1d(hinges), n_pairs=len(table),
                      gold_pairs=len(gold_set), gold_covered=covered)


@dataclass
class TrainResult:
    delta: float
    best_macro_f1: float
    steps: int
    history: list[dict] = field(default_factory=list)


def _dev_eval(model, dev_corpus: Sequence[Document],
              dev_spans: Sequence[Sequence[MentionSpan]], cfg: TrainConfig) -> tuple[float, float]:
    """Returns (delta, strong macro F1) on the dev corpus, whose documents'
    spans under the training regime are `dev_spans`, in corpus order."""
    gold = {doc.doc_id: list(doc.gold) for doc in dev_corpus}
    if cfg.regime == "gold_spans":
        annotations = inference.decode_ed(model, dev_corpus, dev_spans)
        report = inference.evaluate(annotations, gold, mode="strong", task="ED")
        return float("-inf"), report.macro_f1
    pairs = inference.score_corpus(model, dev_corpus, dev_spans)
    delta = inference.select_threshold(pairs, gold, mode="strong")
    report = inference.evaluate(inference.greedy_decode(pairs, delta), gold,
                                mode="strong", task="EL")
    return delta, report.macro_f1


def _train_step(doc: Document, spans: Sequence[MentionSpan], model, adam: ad.AdamState,
                cfg: TrainConfig, rng: np.random.Generator) -> float:
    """One Adam step on one document; returns its loss. The step's graph
    is freed when this returns."""
    result = document_loss(doc, spans, doc.gold, model, cfg, rng=rng)
    if result.trainable:
        model.params.zero_grad()
        ad.backward(result.loss)
        ad.adam_step(adam, model.params.tensors(), model.params.grads())
    return result.loss.item()


def train(corpus: Sequence[Document], dev_corpus: Sequence[Document], model,
          index: AliasIndex, cfg: TrainConfig,
          log_fn: Callable[[dict], None] | None = None) -> TrainResult:
    """Optimize the model until dev macro F1 stops improving.

    One Adam step per document, documents shuffled per epoch from the run
    seed. Every `eval_every` steps the dev threshold is re-tuned and the
    best parameter snapshot kept; training stops after `patience`
    evaluations without improvement (or at `max_steps`). The best snapshot
    is restored into the model before returning. A dev evaluation scores
    the dev corpus through `inference.score_corpus`.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    shuffle_rng = ad.rng_stream(cfg.seed, "shuffle")
    dropout_rng = ad.rng_stream(cfg.seed, "dropout")
    adam = ad.AdamState(lr=cfg.learning_rate)
    step = 0
    best_f1 = -1.0
    best_delta = float("-inf")
    best_state: dict[str, np.ndarray] | None = None
    stale = 0
    history: list[dict] = []
    stop = False

    spans_cache = {doc.doc_id: spans_for_regime(doc, index, cfg) for doc in corpus}
    dev_spans = [spans_for_regime(doc, index, cfg) for doc in dev_corpus]

    def run_eval(loss_value: float) -> None:
        nonlocal best_f1, best_delta, best_state, stale, stop
        delta, macro_f1 = _dev_eval(model, dev_corpus, dev_spans, cfg)
        record = {"step": step, "loss": loss_value, "dev_macro_f1": macro_f1,
                  "delta": None if math.isinf(delta) else delta}
        history.append(record)
        if log_fn is not None:
            log_fn(record)
        log.info("step %d: loss %.4f dev macro F1 %.4f delta %s",
                 step, loss_value, macro_f1, record["delta"])
        if macro_f1 > best_f1 + cfg.improvement:
            best_f1 = macro_f1
            best_delta = delta
            best_state = model.params.state_dict()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                stop = True

    last_loss = 0.0
    while not stop:
        order = list(range(len(corpus)))
        shuffle_rng.shuffle(order)
        for i in order:
            doc = corpus[i]
            try:
                last_loss = _train_step(doc, spans_cache[doc.doc_id], model, adam,
                                        cfg, dropout_rng)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"non-finite loss on document {doc.doc_id!r}: {exc}") from exc
            step += 1
            if step % cfg.eval_every == 0:
                run_eval(last_loss)
                if stop:
                    break
            if cfg.max_steps is not None and step >= cfg.max_steps:
                stop = True
                break

    if best_state is None:
        # never evaluated (e.g. max_steps below eval_every): evaluate once now
        run_eval(last_loss)
    if best_state is not None:
        model.params.load_state_dict(best_state)
    return TrainResult(delta=best_delta, best_macro_f1=best_f1, steps=step,
                       history=history)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(tensors: Mapping[str, np.ndarray], path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, arr in tensors.items():
            data = np.asarray(arr, dtype="<f4")  # tobytes() yields C order for any layout
            binfile.write_record(fh, name, binfile.U8, data.ndim, "tensor")
            payload = data.tobytes()
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape) + payload
                     + binfile.U32.pack(zlib.crc32(payload)))


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """The tensors in file order. A file cut exactly between two entries
    reads as the entries before the cut: the format has no entry count."""
    reader = binfile.Reader(path, CHECKPOINT_MAGIC)
    out: dict[str, np.ndarray] = {}
    while reader.pos < reader.size:
        ((name, rank),) = reader.records(1, binfile.U8, "tensor")
        shape = reader.unpack(struct.Struct(f"<{rank}I"), f"shape of {name!r}")
        payload = reader.take(4 * math.prod(shape), f"payload of {name!r}")
        (crc,) = reader.unpack(binfile.U32, f"CRC of {name!r}")
        if crc != zlib.crc32(payload):
            raise ValueError(f"{path}: CRC mismatch for {name!r}")
        if name in out:
            raise ValueError(f"{path}: duplicate tensor {name!r}")
        out[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    reader.finish()
    return out


def jsonl_log_writer(fh) -> Callable[[dict], None]:
    def write(record: dict) -> None:
        fh.write(json.dumps(record) + "\n")
        fh.flush()
    return write
