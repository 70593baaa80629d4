"""Command-line surface: build-candidates, train, annotate, evaluate,
select-threshold and grad-check.

All file-system writes happen here; library modules only expose load/save
functions that the commands invoke. Exit status is 0 on success, 1 on a
validation problem (bad input, missing file, malformed config) and 2 on a
runtime failure. ``E2EL_LOG`` (error|warn|info|debug) controls verbosity.

`run_command` runs each command whole, first load to last write, with the
cyclic garbage collector paused (`autodiff.cycle_gc_paused` says why that
is safe): a command keeps per-pair records or index entries alive, which
the collector would walk again and again and find no garbage in. A harness
that wants the commands' behaviour and speed goes through `run_command`.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import autodiff as ad
from . import candidates, inference, scoring, training
from .config import RunConfig
from .corpus import Document, parse_conll_aida, parse_corpus_jsonl, text_lines
from .embeddings import CharTable, EntityVectors, WordVectors
from .encoder import EncoderDims
from .model import LinkingModel

log = logging.getLogger("e2el")


def load_corpus(path: str) -> list[Document]:
    """JSON-lines by default; token-per-line files are detected by their
    -DOCSTART- header."""
    first = next((line for _, line in text_lines(path) if line.strip()), None)
    if first is None:
        return []
    if first.startswith("-DOCSTART-"):
        return parse_conll_aida(path)
    return parse_corpus_jsonl(path)


def train_config_from(cfg: RunConfig) -> training.TrainConfig:
    return cfg.build(training.TrainConfig)


def build_model(cfg: RunConfig, chars: CharTable) -> LinkingModel:
    words = WordVectors.from_file(cfg.require("paths.word_embeddings"))
    entities = EntityVectors.from_file(cfg.require("paths.entity_embeddings"),
                                       frozen=cfg["entities.frozen"])
    return LinkingModel(
        dims=cfg.build(EncoderDims), words=words, chars=chars, entities=entities,
        seed=cfg["seed"], use_attention=cfg["model.use_attention"],
        use_global=cfg["model.use_global"], attention_window=cfg["attention.window"],
        attention_keep=cfg["attention.keep"], global_cfg=cfg.build(scoring.GlobalConfig))


def model_from_checkpoint(cfg: RunConfig, path: str) -> tuple[LinkingModel, float]:
    """Rebuild the model around a checkpoint's tensors and threshold.

    `train` writes ``meta.delta`` as the last entry, so a file cut before it
    is rejected here rather than read as a model with no threshold.
    """
    if not os.path.exists(path):
        raise ValueError(f"checkpoint not found: {path}")
    state = training.load_checkpoint(path)
    if "meta.char_vocab" not in state or "char_table" not in state:
        raise ValueError(f"{path}: checkpoint lacks the character inventory")
    if "meta.delta" not in state:
        raise ValueError(f"{path}: checkpoint lacks meta.delta")
    if state["meta.delta"].size != 1:
        raise ValueError(f"{path}: meta.delta must be one value, got {state['meta.delta'].size}")
    delta = float(state["meta.delta"].item())
    if math.isnan(delta):
        raise ValueError(f"{path}: meta.delta is nan")
    cps, table = state["meta.char_vocab"], state["char_table"]
    if cps.ndim != 1 or len(np.unique(cps)) != len(cps) \
            or not np.all((cps >= 0) & (cps <= 0x10FFFF) & (cps == np.floor(cps))):
        raise ValueError(f"{path}: meta.char_vocab must hold distinct integer code points "
                         f"in [0, 0x10FFFF]")
    if table.ndim != 2 or len(table) != len(cps) + 1:
        raise ValueError(f"{path}: char_table has shape {table.shape}, not one row per "
                         f"code point plus the unknown row ({len(cps) + 1})")
    if table.shape[1] != cfg["dims.char"]:
        raise ValueError(f"{path}: char_table is {table.shape[1]}-d, config says "
                         f"{cfg['dims.char']}")
    chars = CharTable.from_codepoints(cps.astype(np.int64), ad.parameter(table))
    model = build_model(cfg, chars)
    try:
        model.load_state_arrays(state)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, delta


# ---------------------------------------------------------------------------
# commands


def cmd_build_candidates(args) -> int:
    if not args.counts and not args.priors:
        raise ValueError("need --counts files or a --priors file")
    if args.priors:
        index = candidates.load_prior_index(args.priors, s=args.max_candidates,
                                            max_span_length=args.max_span_length)
    else:
        index = candidates.build_index(args.counts, s=args.max_candidates,
                                       max_span_length=args.max_span_length)
    candidates.save_index(index, args.out)
    summary = {"surfaces": len(index), "s": index.s,
               "max_span_length": index.max_span_length}
    if args.recall_corpus:
        docs = load_corpus(args.recall_corpus)
        recall = candidates.candidate_recall(docs, index, ks=(30, 10))
        summary["recall"] = {str(k): v for k, v in recall.items()}
    print(json.dumps(summary))
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config, args.set)
    train_path, dev_path = cfg.require("paths.train_corpus"), cfg.require("paths.dev_corpus")
    train_docs = load_corpus(train_path)
    dev_docs = load_corpus(dev_path)
    index = candidates.load_any_index(cfg.require("paths.candidate_index"))
    tokens = [t for doc in train_docs for t in doc.tokens]
    chars = CharTable.build(tokens, cfg["dims.char"], ad.rng_stream(cfg["seed"], "char_init"))
    model = build_model(cfg, chars)
    tcfg = train_config_from(cfg)

    log_path = cfg["paths.train_log"]
    with open(log_path, "w", encoding="utf-8") if log_path else nullcontext() as log_fh:
        log_fn = training.jsonl_log_writer(log_fh) if log_path else None
        result = training.train(train_docs, dev_docs, model, index, tcfg, log_fn=log_fn,
                                sources=(train_path, dev_path))

    state = model.state_arrays()
    state["meta.delta"] = np.asarray(result.delta, dtype=np.float32)
    training.save_checkpoint(state, cfg.require("paths.checkpoint"))
    print(json.dumps({"steps": result.steps, "dev_macro_f1": result.best_macro_f1,
                      "delta": None if math.isinf(result.delta) else result.delta,
                      "checkpoint": cfg["paths.checkpoint"]}))
    return 0


def cmd_annotate(args) -> int:
    if args.delta is not None and math.isnan(args.delta):
        raise ValueError("--delta must be a number, got nan")
    cfg = RunConfig.load(args.config, args.set)
    model, delta = model_from_checkpoint(cfg, cfg.require("paths.checkpoint"))
    if args.delta is not None:
        delta = args.delta
    index = candidates.load_any_index(cfg.require("paths.candidate_index"))
    docs = load_corpus(args.infile)

    if args.task == "ED":
        annotations = inference.decode_ed(
            model, docs, [candidates.spans_for_gold(doc, index) for doc in docs])
    else:
        coref = cfg["coref.enabled"]
        spans = [training.el_spans(doc, index, coref) for doc in docs]
        annotations = inference.greedy_decode(inference.score_corpus(model, docs, spans), delta)
    inference.write_annotations(annotations, args.out)
    print(json.dumps({"documents": len(docs), "annotations": len(annotations),
                      "delta": None if math.isinf(delta) else delta}))
    return 0


def cmd_evaluate(args) -> int:
    pred = inference.read_annotations(args.pred)
    gold = {doc.doc_id: list(doc.gold) for doc in load_corpus(args.gold)}
    try:
        report = inference.evaluate(pred, gold, mode=args.mode, task=args.task)
    except ValueError as exc:  # an unknown document or a duplicate prediction
        raise ValueError(f"{args.pred}: {exc}") from None
    print(json.dumps(report.to_dict()))
    print(report.format_table(), file=sys.stderr)
    return 0


def cmd_select_threshold(args) -> int:
    cfg = RunConfig.load(args.config, args.set)
    model, _ = model_from_checkpoint(cfg, cfg.require("paths.checkpoint"))
    index = candidates.load_any_index(cfg.require("paths.candidate_index"))
    docs = load_corpus(args.dev)
    coref = cfg["coref.enabled"]
    pairs = inference.score_corpus(model, docs,
                                   [training.el_spans(doc, index, coref) for doc in docs])
    if not pairs:
        raise ValueError(f"{args.dev}: no scored pairs to tune the threshold on")
    gold = {doc.doc_id: list(doc.gold) for doc in docs}
    delta = inference.select_threshold(pairs, gold, mode=args.mode)
    best = inference.best_per_span(pairs)  # decoding them gives the same annotations as all pairs
    annotations = inference.greedy_decode(best, delta)
    report = inference.evaluate(annotations, gold, mode=args.mode)
    print(json.dumps({"delta": None if math.isinf(delta) else delta,
                      "micro_f1": report.micro_f1, "documents": len(docs),
                      "pairs": len(pairs),
                      "thresholds": len({p.score for p in best}) + 1,  # and -inf
                      "annotations": len(annotations)}))
    return 0


def cmd_grad_check(args) -> int:
    errors = full_model_grad_check(seed=args.seed)
    worst = max(errors.values())
    for name, err in errors.items():
        print(f"{name}: {err:.3e}")
    print(json.dumps({"max_relative_error": worst, "tolerance": 1e-4}))
    return 0 if worst <= 1e-4 else 2


def _toy_check_setup(seed: int, frozen: bool, entity_dim: int = 8):
    rng = np.random.default_rng(seed)
    surfaces = ["sa", "sb", "sc", "pad"]
    entity_ids = [f"E{i}" for i in range(4)]
    vocab = {t: i for i, t in enumerate(surfaces)}
    words = WordVectors(vocab=vocab,
                        matrix=rng.standard_normal((5, entity_dim)).astype(np.float32),
                        unk_index=4)
    evecs = rng.standard_normal((4, entity_dim))
    evecs /= np.linalg.norm(evecs, axis=1, keepdims=True)
    entities = EntityVectors(ids={e: i for i, e in enumerate(entity_ids)},
                             matrix=evecs.astype(np.float32), frozen=frozen)
    dims = EncoderDims(word_dim=entity_dim, char_dim=3, char_hidden=3, ctx_hidden=4,
                       entity_dim=entity_dim, dropout_keep=1.0)
    chars = CharTable.build(surfaces, 3, rng)
    model = LinkingModel(dims=dims, words=words, chars=chars, entities=entities,
                         seed=seed, use_attention=True, use_global=True,
                         attention_window=4, attention_keep=3)
    # two span lengths (the multi-token span exercises the soft head) and,
    # in the window of 4, two kept counts: 2 words near the start, and 3 of
    # 4 around "sb" and "sc", so the top-K selection drops a word
    table = {"sa": [("E0", 0.6), ("E1", 0.4)], "sb": [("E2", 1.0)],
             "sc": [("E1", 0.5), ("E3", 0.5)], "sa pad": [("E3", 1.0)]}
    if not frozen:
        table["sb"] = [("E2", 0.7), ("E9", 0.3)]  # E9 has no vector: a zero row
    entries = {s: [candidates.CandidateEntry(e, p) for e, p in lst]
               for s, lst in table.items()}
    index = candidates.AliasIndex(entries, s=30, max_span_length=3)
    doc = Document("toy", ["sa", "pad", "sb", "sc", "pad", "pad"],
                   gold=[(0, 0, "E0"), (2, 2, "E2")])
    tcfg = training.TrainConfig(gamma=0.2)
    spans = training.spans_for_regime(doc, index, tcfg)
    return model, doc, spans, tcfg


def _hinge_clearance(model, doc, spans, tcfg) -> float:
    """Distance of every hinge and voter-threshold input to its kink."""
    gold = {(s, e, ent) for s, e, ent in doc.gold}
    dist = float("inf")
    for p in model.score_pairs(doc, spans):
        is_gold = (p.span.start, p.span.end, p.entity_id) in gold
        for v in (p.psi, p.phi):
            dist = min(dist, abs(tcfg.gamma - v) if is_gold else abs(v))
        dist = min(dist, abs(p.psi - model.global_cfg.gamma_prime))
    return dist


def full_model_grad_check(seed: int = 0) -> dict[str, float]:
    """Finite-difference check of the local score, global score and
    document-loss graphs on a small model; returns max relative error per
    (graph, parameter).

    A second model has trainable entity vectors, one candidate without a
    vector; on it only the entity matrix is checked.

    The loss is piecewise smooth, so the starting seed is advanced until no
    hinge input sits close enough to its kink to corrupt the central
    differences. The composite graphs use a larger step than the per-op
    checks: at h=1e-5 the float64 difference noise (~1e-12) already exceeds
    the 1e-8 relative-error floor on near-zero gradient coordinates.
    """
    h = 1e-4
    errors: dict[str, float] = {}
    with ad.precision("float64"):
        for frozen in (True, False):
            for attempt in range(20):
                model, doc, spans, tcfg = _toy_check_setup(seed + attempt, frozen)
                if _hinge_clearance(model, doc, spans, tcfg) > 1e-2:
                    break
            else:
                raise RuntimeError("no kink-free configuration found")

            def score_sum(field: str):
                return lambda: ad.sum1d(getattr(model.pair_scores(doc, spans, mode="eval"),
                                                field))

            def doc_loss():
                return training.document_loss(doc, spans, doc.gold, model, tcfg,
                                              mode="eval").loss

            graphs = {"psi": score_sum("psi"), "phi": score_sum("phi"), "loss": doc_loss}
            checked = ({"psi": model.params.names(), "loss": model.params.names(),
                        "phi": ["phi.w", "phi.b", "att.a", "att.b"]} if frozen
                       else dict.fromkeys(graphs, ["entities"]))
            for graph, names in checked.items():
                for name in names:
                    tensor = model.params[name]
                    errors[f"{graph}/{name}"] = ad.grad_check(graphs[graph], tensor, h=h)
    return errors


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="e2el",
                                     description="joint mention detection and entity linking")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-candidates", help="build the surface-to-entity index")
    p.add_argument("--counts", nargs="*", default=[], help="count TSV files")
    p.add_argument("--priors", help="prebuilt surface/entity/prior TSV")
    p.add_argument("--out", required=True)
    p.add_argument("--max-candidates", type=int, default=30)
    p.add_argument("--max-span-length", type=int, default=6)
    p.add_argument("--recall-corpus", help="report gold-candidate recall on this corpus")
    p.set_defaults(func=cmd_build_candidates)

    p = sub.add_parser("train", help="train a linking model")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("annotate", help="annotate a corpus with a trained model")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--task", choices=("EL", "ED"), default="EL")
    p.add_argument("--delta", type=float, help="override the checkpoint threshold")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("evaluate", help="score annotations against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.add_argument("--task", choices=("EL", "ED"), default="EL")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("select-threshold", help="tune the decode threshold")
    p.add_argument("--config", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_select_threshold)

    p = sub.add_parser("grad-check", help="finite-difference check of the score graphs")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    return parser


def setup_logging() -> None:
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("E2EL_LOG", "warn").lower()
    if name not in levels:
        name = "warn"
    logging.basicConfig(level=levels[name],
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def run_command(argv: list[str] | None = None) -> int:
    setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        with ad.cycle_gc_paused():
            return args.func(args)
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        log.exception("command failed")
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
