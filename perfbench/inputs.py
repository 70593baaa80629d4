"""Deterministic synthetic inputs for the e2el benchmark.

One seed gives byte-identical files: word vectors (text format), entity
vectors (binary format), a binary alias index, JSON-lines corpora and, for
annotate-toy, a model checkpoint. Everything is drawn from named numpy
streams of the seed and written in sorted or insertion order, so nothing
depends on Python's string hashing.

The synthetic world mimics news text:
- filler tokens are lowercase and Zipf-distributed, so they repeat within a
  document; no filler is an alias, so spans come only from mentions;
- names are capitalized; the alias index holds 1-3-token name surfaces and
  every contiguous sub-surface of a surface is an alias too;
- each document draws a few topic surfaces, popular ones more often, and
  repeats them by Zipf rank; a mention always has a filler on each side,
  so no span crosses two mentions;
- about one gold entity in ten lies outside its surface's candidate list,
  so gold coverage is below 1.

Run as a script to write one workload's inputs into a directory:
``python3 perfbench/inputs.py --workload annotate-toy --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import zlib
from dataclasses import dataclass

import numpy as np

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"


@dataclass(frozen=True)
class Profile:
    """Sizes of one workload's synthetic world."""

    fillers: int            # filler vocabulary size
    names: int              # name-token vocabulary size
    surfaces: int           # full-length surfaces before adding sub-surfaces
    entities: int
    candidates: tuple[int, int]  # inclusive range of candidate-list lengths
    doc_tokens: tuple[int, int]  # inclusive range of document lengths
    corpora: tuple[tuple[str, int], ...]  # (file stem, documents)
    min_ops: int = 1        # ops a run makes however short `seconds` is
    checkpoint: bool = False
    # model dims; 0 means the workload loads no vectors and no model
    word_dim: int = 0
    char_dim: int = 0
    char_hidden: int = 0
    ctx_hidden: int = 0
    entity_dim: int = 0

    def dims(self) -> dict:
        return {"dims.word": self.word_dim, "dims.char": self.char_dim,
                "dims.char_hidden": self.char_hidden, "dims.ctx_hidden": self.ctx_hidden,
                "dims.entity": self.entity_dim}


PAPER_DIMS = dict(word_dim=300, char_dim=50, char_hidden=50, ctx_hidden=150, entity_dim=300)
TOY_DIMS = dict(word_dim=64, char_dim=8, char_hidden=8, ctx_hidden=32, entity_dim=64)

# Paper dims at training scale, toy dims for the eval-only path, and an
# index-plus-corpus world for the threshold sweep. train-paper's train
# corpus holds one document per Adam step of an op. The cost of
# train-paper and threshold-sweep follows the pair count of a few
# documents, so their candidate lists have one fixed length.
PROFILES = {
    "train-paper": Profile(
        fillers=3000, names=2500, surfaces=9000, entities=4000, candidates=(9, 9),
        doc_tokens=(200, 200), corpora=(("train", 2), ("dev", 1)), **PAPER_DIMS),
    "annotate-toy": Profile(
        fillers=8000, names=5000, surfaces=20000, entities=4000, candidates=(7, 11),
        doc_tokens=(40, 200), corpora=(("docs", 50),), min_ops=100, checkpoint=True,
        **TOY_DIMS),
    "threshold-sweep": Profile(
        fillers=3000, names=5000, surfaces=20000, entities=4000, candidates=(9, 9),
        doc_tokens=(200, 200), corpora=(("dev", 8),)),
}

# The self-test runs every workload on these.
TINY = {
    name: Profile(**{**p.__dict__,
                     "fillers": 200, "names": 150, "surfaces": 300, "entities": 300,
                     "doc_tokens": (30, 60), "min_ops": 1,
                     "corpora": tuple((stem, min(n, 3)) for stem, n in p.corpora),
                     **({"word_dim": 16, "char_dim": 4, "char_hidden": 4,
                         "ctx_hidden": 8, "entity_dim": 16}
                        if p.word_dim else {})})
    for name, p in PROFILES.items()
}

MAX_CANDIDATES = 30  # s
MAX_SPAN_LENGTH = 6  # L
CHECKPOINT_DELTA = 0.0
MENTION_RATE = 0.1  # mentions per token
COVERAGE = 0.9  # share of gold entities drawn from the surface's candidates


def stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


def zipf_probs(n: int, a: float = 1.1) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** a
    return w / w.sum()


def draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """`size` indices drawn with replacement from the distribution with this CDF."""
    return np.minimum(np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right"),
                      len(cdf) - 1)


def draw_distinct(rng: np.random.Generator, cdf: np.ndarray, size: int) -> list[int]:
    """`size` distinct indices, in the order first drawn."""
    out: dict[int, None] = {}
    while len(out) < size:
        for i in draw(rng, cdf, 2 * size).tolist():
            out.setdefault(i, None)
    return list(out)[:size]


def pseudo_words(rng: np.random.Generator, n: int, capitalized: bool) -> list[str]:
    """n distinct consonant-vowel words, shortest first so frequent ranks are short."""
    seen: dict[str, None] = {}
    while len(seen) < n:
        syllables = int(rng.integers(1, 5))
        w = "".join(CONSONANTS[rng.integers(len(CONSONANTS))] + VOWELS[rng.integers(len(VOWELS))]
                    for _ in range(syllables))
        if capitalized:
            w = w.capitalize()
        seen.setdefault(w, None)
    return sorted(seen, key=lambda w: (len(w), w))


@dataclass
class World:
    fillers: list[str]
    names: list[str]
    surfaces_by_len: dict[int, list[str]]  # mention surfaces per token length
    table: dict[str, list[tuple[str, float]]]  # every alias -> (entity, prior)
    entities: list[str]


def make_world(p: Profile, seed: int) -> World:
    rng = stream(seed, "world")
    fillers = pseudo_words(rng, p.fillers, capitalized=False)
    names = pseudo_words(rng, p.names, capitalized=True)
    rng.shuffle(names)
    entities = [f"Q{i}" for i in range(p.entities)]
    entity_cdf = np.cumsum(zipf_probs(p.entities, a=0.8))

    surfaces_by_len: dict[int, list[str]] = {1: [], 2: [], 3: []}
    aliases: dict[str, None] = {}
    lengths = rng.choice([1, 2, 3], size=p.surfaces, p=[0.4, 0.35, 0.25])
    for k in lengths:
        toks = [names[i] for i in rng.integers(len(names), size=int(k))]
        surface = " ".join(toks)
        if surface in aliases and k > 1:
            continue
        surfaces_by_len[int(k)].append(surface)
        for i in range(len(toks)):
            for j in range(i + 1, len(toks) + 1):
                aliases.setdefault(" ".join(toks[i:j]), None)
    for k in surfaces_by_len:
        surfaces_by_len[k] = list(dict.fromkeys(surfaces_by_len[k]))

    table: dict[str, list[tuple[str, float]]] = {}
    for surface in aliases:
        n = int(rng.integers(p.candidates[0], p.candidates[1] + 1))
        chosen = draw_distinct(rng, entity_cdf, n)
        priors = rng.dirichlet(np.full(len(chosen), 0.6)) + 1e-3
        priors = np.sort(priors / priors.sum())[::-1]
        table[surface] = [(entities[e], float(pr)) for e, pr in zip(chosen, priors)]
    return World(fillers=fillers, names=names, surfaces_by_len=surfaces_by_len,
                 table=table, entities=entities)


def make_documents(p: Profile, world: World, seed: int, stem: str, count: int):
    """`count` documents; mention-length counts are fixed per document length."""
    from e2el.corpus import Document

    rng = stream(seed, f"docs/{stem}")
    filler_cdf = np.cumsum(zipf_probs(len(world.fillers)))
    surface_cdf = {k: np.cumsum(zipf_probs(len(pool), a=0.7))
                   for k, pool in world.surfaces_by_len.items()}
    # stratified lengths: every seed gets the same spread of short and long documents
    lo, hi = p.doc_tokens
    lengths = [lo + int((hi - lo + 1) * (d + rng.random()) / count) for d in range(count)]
    rng.shuffle(lengths)
    docs = []
    for d, n in enumerate(lengths):
        m = max(1, round(n * MENTION_RATE))
        mention_lens = [1] * round(0.4 * m) + [2] * round(0.35 * m)
        mention_lens += [3] * max(0, m - len(mention_lens))
        rng.shuffle(mention_lens)
        # each document repeats its own few surfaces, popular ones more often
        topics, topic_cdf = {}, {}
        for k in (1, 2, 3):
            pool = world.surfaces_by_len[k]
            size = max(1, round(0.6 * mention_lens.count(k)))
            topics[k] = [pool[j] for j in draw_distinct(rng, surface_cdf[k], size)]
            topic_cdf[k] = np.cumsum(zipf_probs(size, a=1.2))
        mention_tokens = sum(mention_lens)
        n = max(n, mention_tokens + m + 1)
        # fillers between and around mentions, at least one between neighbours
        gaps = np.ones(m + 1, dtype=int)
        gaps[0] = gaps[-1] = 0
        extra = n - mention_tokens - int(gaps.sum())
        gaps += rng.multinomial(extra, np.full(m + 1, 1.0 / (m + 1)))
        tokens: list[str] = []
        gold = []
        for i in range(m + 1):
            tokens.extend(world.fillers[j] for j in draw(rng, filler_cdf, int(gaps[i])))
            if i == m:
                break
            k = mention_lens[i]
            surface = topics[k][int(draw(rng, topic_cdf[k], 1)[0])]
            start = len(tokens)
            tokens.extend(surface.split())
            cands = world.table[surface]
            if rng.random() < COVERAGE:
                pri = np.array([pr for _, pr in cands])
                entity = cands[int(rng.choice(len(cands), p=pri / pri.sum()))][0]
            else:
                listed = {e for e, _ in cands}
                entity = next(e for e in (world.entities[int(j)] for j in
                                          rng.integers(len(world.entities), size=64))
                              if e not in listed)
            gold.append((start, len(tokens) - 1, entity))
        docs.append(Document(doc_id=f"{stem}{d:03d}", tokens=tokens, gold=gold))
    return docs


def write_inputs(p: Profile, seed: int, out: str) -> None:
    """Write one workload's input files into `out`."""
    from e2el import candidates, training
    from e2el.corpus import write_corpus_jsonl
    from e2el.embeddings import CharTable, EntityVectors, WordVectors, \
        save_binary_embeddings, save_text_embeddings
    from e2el.encoder import EncoderDims
    from e2el.model import LinkingModel

    os.makedirs(out, exist_ok=True)
    world = make_world(p, seed)
    rng = stream(seed, "vectors")

    entries = {s: [candidates.CandidateEntry(e, pr) for e, pr in lst]
               for s, lst in world.table.items()}
    candidates.save_index(candidates.AliasIndex(entries, s=MAX_CANDIDATES,
                                                max_span_length=MAX_SPAN_LENGTH),
                          os.path.join(out, "index.bin"))
    for stem, count in p.corpora:
        write_corpus_jsonl(make_documents(p, world, seed, stem, count),
                           os.path.join(out, f"{stem}.jsonl"))
    if not p.word_dim:
        return

    # ~10% of name tokens have no word vector and fall back to <unk>
    known_names = [w for w in world.names if rng.random() < 0.9]
    vocab = {w: i for i, w in enumerate(world.fillers + known_names + ["<unk>"])}
    words = rng.standard_normal((len(vocab), p.word_dim)).astype(np.float32) * 0.1
    save_text_embeddings(vocab, words, os.path.join(out, "words.txt"))
    ents = rng.standard_normal((len(world.entities), p.entity_dim))
    ents /= np.linalg.norm(ents, axis=1, keepdims=True)
    ent_ids = {e: i for i, e in enumerate(world.entities)}
    save_binary_embeddings(ent_ids, ents.astype(np.float32), os.path.join(out, "entities.bin"))

    if p.checkpoint:
        # A stand-in for a trained model: the local score follows the log prior.
        dims = EncoderDims(word_dim=p.word_dim, char_dim=p.char_dim,
                           char_hidden=p.char_hidden, ctx_hidden=p.ctx_hidden,
                           entity_dim=p.entity_dim)
        chars = CharTable.build(list(vocab), p.char_dim, stream(seed, "chars"))
        model = LinkingModel(
            dims=dims, chars=chars,
            words=WordVectors(vocab=vocab, matrix=words, unk_index=vocab["<unk>"]),
            entities=EntityVectors(ids=ent_ids, matrix=ents.astype(np.float32)),
            seed=seed)
        state = model.state_arrays()
        state["psi.w"] = np.array([1.0, 0.05], dtype=np.float32)
        state["psi.b"] = np.asarray(1.0, dtype=np.float32)
        state["meta.delta"] = np.asarray(CHECKPOINT_DELTA, dtype=np.float32)
        training.save_checkpoint(state, os.path.join(out, "model.ckpt"))


def digest(directory: str) -> str:
    """sha256 over the names and bytes of every file in `directory`."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    profiles = TINY if args.tiny else PROFILES
    write_inputs(profiles[args.workload], args.seed, args.out)
    print(json.dumps({"digest": digest(args.out)}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    sys.exit(main())
