"""The empirical mention-entity map and span enumeration.

Surfaces normalize by trimming and collapsing internal whitespace; case is
preserved since capitalization carries signal for names. Priors come from
count files (``surface<TAB>entity_id<TAB>count``), are normalized per
surface before truncation to the top ``s`` candidates, and are deliberately
not renormalized afterwards so a truncated list keeps the untruncated
empirical probabilities.

Binary index cache: magic ``E2EA``, little-endian u32 s and max span
length, u32 surface count, then per surface a u16-length-prefixed UTF-8
surface, u32 entry count, and per entry a u16-length-prefixed entity id
plus an f64 prior. The string, length and error rules are those of
``binfile``. Both formats reject a prior outside (0, 1], nan included, and
an entity listed twice for one surface; the cache also rejects a surface
record that repeats an earlier one. Both text formats (counts and a
prebuilt ``surface<TAB>entity_id<TAB>prior`` file) read their lines
through one row reader, which rejects a surface that is blank after
normalization.

An index holds millions of entries at the paper's scale, so the cache is
decoded in one loop over its records. Each entity id is decoded once and
shared by every surface that lists it, and an entry is a NamedTuple, which
costs what a tuple costs. The decode runs with the cyclic garbage
collector paused: it allocates a few objects per entry and no reference
cycle, and left running the collector walks every entry made so far again
and again and finds no garbage. Every CLI command already runs paused
(`cli.run_command`). The decode still pauses on its own because callers
outside the CLI load indexes too, and a benchmark set-up times the load:
unpaused, a decode took 23–33% longer.

Span enumeration grows each start's key one token at a time and stops at
a key that is no proper word-prefix of a surface, since no key that
extends it can be one. `AliasIndex` builds the set of those prefixes once,
when it is made, so every loader and direct construction has it. It holds
one string per distinct proper word-prefix: on the benchmark's indexes of
12k and 27k surfaces of 1–3 words, 4.6k and 9.9k strings, about 0.5 and
1.1 MB, built in 2.5–3 and 5.5–7 ms against 0.1–0.16 and 0.25 s for the
binary load (2-core VM, Python 3.11). On annotate-toy's documents the stop
cut the dict probes from 705 to 145 per document, for 35 spans.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import autodiff as ad
from . import binfile
from .corpus import Document, text_lines

INDEX_MAGIC = b"E2EA"
INDEX_HEADER = struct.Struct("<III")
MAX_PRIOR = 1.0 + 1e-6  # priors lie in (0, MAX_PRIOR]; the slack absorbs rounding


class CandidateEntry(NamedTuple):
    entity_id: str
    prior: float


@dataclass(slots=True)
class MentionSpan:
    """A token interval [start, end] with its candidate entities."""

    doc_id: str
    start: int
    end: int
    surface: str
    candidates: list[CandidateEntry] = field(default_factory=list)

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def normalize_surface(surface: str) -> str:
    return " ".join(surface.split())


def _word_prefixes(surfaces: Iterable[str]) -> set[str]:
    """Every proper word-prefix of `surfaces`: each surface cut before each
    of its spaces ("a" and "a b" of "a b c"). Each round cuts the last word
    off the new strings of the round before; a string already in the set
    has had its own prefixes cut, so only new ones go on."""
    prefixes: set[str] = set()
    level = {surface.rpartition(" ")[0] for surface in surfaces if " " in surface}
    while level:
        prefixes |= level
        level = {prefix.rpartition(" ")[0] for prefix in level if " " in prefix} - prefixes
    return prefixes


class AliasIndex:
    """Normalized surface -> candidates sorted by prior (ties by entity id).

    The keys are fixed once the index is built: `prefixes` is derived from
    them here, and `enumerate_spans` trusts it. Each surface's candidate
    list may change in place.
    """

    def __init__(self, entries: dict[str, list[CandidateEntry]],
                 s: int = 30, max_span_length: int = 6):
        if s < 1 or max_span_length < 1:
            raise ValueError(f"candidate limit s={s} and max span length {max_span_length} "
                             f"must both be at least 1")
        self.entries = entries
        self.s = s
        self.max_span_length = max_span_length
        self.prefixes = _word_prefixes(entries)

    def lookup(self, surface: str) -> list[CandidateEntry]:
        return self.entries.get(normalize_surface(surface), [])

    def __len__(self) -> int:
        return len(self.entries)


def build_index(count_files: Sequence[str], s: int = 30,
                max_span_length: int = 6) -> AliasIndex:
    """Sum counts across files per (surface, entity) and derive priors."""
    counts: dict[str, dict[str, int]] = {}
    for path in count_files:
        for lineno, surface, entity_id, count in _text_rows(path, int, "count", "an integer"):
            if count <= 0:
                raise ValueError(f"{path}:{lineno}: count must be positive, got {count}")
            by_entity = counts.setdefault(surface, {})
            by_entity[entity_id] = by_entity.get(entity_id, 0) + count
    entries = {}
    for surface, by_entity in counts.items():
        total = float(sum(by_entity.values()))
        entries[surface] = _ranked({e: c / total for e, c in by_entity.items()}, s)
    return AliasIndex(entries, s=s, max_span_length=max_span_length)


def load_prior_index(path: str, s: int = 30, max_span_length: int = 6) -> AliasIndex:
    """Load a prebuilt ``surface<TAB>entity_id<TAB>prior`` file."""
    raw: dict[str, dict[str, float]] = {}
    for lineno, surface, entity_id, prior in _text_rows(path, float, "prior", "a number"):
        if not 0.0 < prior <= MAX_PRIOR:
            raise ValueError(f"{path}:{lineno}: prior {prior} outside (0, 1]")
        by_entity = raw.setdefault(surface, {})
        if entity_id in by_entity:
            raise ValueError(f"{path}:{lineno}: duplicate entry for "
                             f"({surface!r}, {entity_id!r})")
        by_entity[entity_id] = prior
    entries = {surface: _ranked(by_entity, s) for surface, by_entity in raw.items()}
    return AliasIndex(entries, s=s, max_span_length=max_span_length)


def _text_rows(path: str, parse: Callable[[str], float], name: str,
               kind: str) -> Iterator[tuple[int, str, str, float]]:
    """(line number, normalized surface, entity id, value) per non-blank
    line of a ``surface<TAB>entity_id<TAB>value`` file. A blank surface
    is rejected, and so is a value that `parse` rejects, reported as
    "`name` 'value' is not `kind`"."""
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        cols = line.rstrip("\n").split("\t")
        if len(cols) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
        surface = normalize_surface(cols[0])
        if not surface:
            raise ValueError(f"{path}:{lineno}: empty surface")
        try:
            value = parse(cols[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {name} {cols[2]!r} is not {kind}") from None
        yield lineno, surface, cols[1], value


def _ranked(priors: dict[str, float], s: int) -> list[CandidateEntry]:
    """The `s` likeliest candidates, ties by entity id."""
    return sorted((CandidateEntry(e, p) for e, p in priors.items()),
                  key=lambda c: (-c.prior, c.entity_id))[:s]


def save_index(index: AliasIndex, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC + INDEX_HEADER.pack(index.s, index.max_span_length,
                                                 len(index.entries)))
        for surface in sorted(index.entries):
            binfile.write_record(fh, surface, binfile.U32, len(index.entries[surface]), "surface")
            for e in index.entries[surface]:
                binfile.write_record(fh, e.entity_id, binfile.F64, e.prior, "candidate")


def load_index(path: str) -> AliasIndex:
    reader = binfile.Reader(path, INDEX_MAGIC)
    s, max_len, n_surfaces = reader.unpack(INDEX_HEADER, "header")
    if s < 1 or max_len < 1:
        raise reader.error(f"candidate limit s={s} and max span length {max_len} must both "
                           f"be at least 1", "header", len(INDEX_MAGIC))
    with ad.cycle_gc_paused():  # the entries hold no reference cycle
        entries = _decode_surfaces(reader, n_surfaces)
    reader.finish()
    return AliasIndex(entries, s=s, max_span_length=max_len)


def _decode_surfaces(reader: binfile.Reader, n_surfaces: int) -> dict[str, list[CandidateEntry]]:
    """`n_surfaces` surface records, each followed by its candidate records.

    A short read or invalid UTF-8 raises at the record it hits, as
    `binfile.Reader.records` would. A repeated surface raises at its
    record. The candidates of a surface are all read before the first
    prior outside (0, 1] or repeated entity among them raises, so the error
    names the same byte as a read of the records followed by the checks.
    """
    buf, pos = reader.buf, reader.pos
    u16, u32, f64 = binfile.U16.unpack_from, binfile.U32.unpack_from, binfile.F64.unpack_from
    new = tuple.__new__  # CandidateEntry(eid, prior) without its Python-level wrapper
    ids: dict[bytes, str] = {}  # entity ids repeat across surfaces: decode each once
    entries: dict[str, list[CandidateEntry]] = {}
    try:
        for i in range(n_surfaces):
            record = "surface"
            (k,) = u16(buf, pos)
            end = pos + 2 + k
            (n,) = u32(buf, end)
            surface = buf[pos + 2:end].decode("utf-8")
            if surface in entries:
                raise reader.error(f"repeated surface {surface!r}", record, pos)
            pos = end + 4
            record = "candidate"
            cands: list[CandidateEntry] = []
            seen: set[str] = set()
            bad = None  # (offset, entity id, prior) of the first bad candidate
            for _ in range(n):
                (k,) = u16(buf, pos)
                end = pos + 2 + k
                (prior,) = f64(buf, end)
                raw = buf[pos + 2:end]
                eid = ids.get(raw)
                if eid is None:
                    eid = ids[raw] = raw.decode("utf-8")
                if (not 0.0 < prior <= MAX_PRIOR or eid in seen) and bad is None:  # nan too
                    bad = (pos, eid, prior)
                seen.add(eid)
                cands.append(new(CandidateEntry, (eid, prior)))
                pos = end + 8
            if bad is not None:
                at, eid, prior = bad
                if 0.0 < prior <= MAX_PRIOR:
                    raise reader.error(f"repeated entity {eid!r} for surface {surface!r}",
                                       record, at)
                raise reader.error(f"prior {prior} of {eid!r} for surface {surface!r} "
                                   f"outside (0, 1]", record, at)
            entries[surface] = cands
            if i % 1024 == 1023:
                reader.pos = pos
                reader.release()
    except (struct.error, UnicodeDecodeError) as exc:
        reader.pos = pos
        raise reader.error("file ends" if isinstance(exc, struct.error) else "invalid UTF-8",
                           record) from None
    reader.pos = pos
    return entries


def load_any_index(path: str) -> AliasIndex:
    return binfile.load_either(path, INDEX_MAGIC, load_index, load_prior_index)


def enumerate_spans(doc: Document, index: AliasIndex) -> list[MentionSpan]:
    """All token intervals of length <= max_span_length with candidates.

    Overlapping spans are retained; the output is sorted by (start, end).
    A span's key is its normalized surface, the same as `AliasIndex.lookup`
    makes of its joined tokens: each token is normalized once, and the key
    of [start, end] grows from that of [start, end − 1] by the next token.
    A token of only whitespace adds nothing to the key, so the interval it
    ends has the candidates of the one before it and needs no probe; every
    other interval is one dict probe. A start stops growing at a key that
    is no proper word-prefix of a surface (`AliasIndex.prefixes`): no key
    that extends it can be a surface. Blank tokens after such a key still
    end spans, as they add nothing to it. The raw surface is built for a
    found span only.
    """
    spans: list[MentionSpan] = []
    n = len(doc.tokens)
    doc_id = doc.doc_id
    parts = [normalize_surface(token) for token in doc.tokens]
    entries, prefixes = index.entries, index.prefixes
    for start in range(n):
        key = parts[start]
        cands = entries.get(key)
        if cands:
            spans.append(MentionSpan(doc_id, start, start, doc.surface(start, start), cands))
        for end in range(start + 1, min(start + index.max_span_length, n)):
            part = parts[end]
            if part:
                if not key:
                    key = part
                elif key in prefixes:
                    key = f"{key} {part}"
                else:
                    break
                cands = entries.get(key)
            if cands:
                spans.append(MentionSpan(doc_id, start, end, doc.surface(start, end), cands))
    return spans


def spans_for_gold(doc: Document, index: AliasIndex) -> list[MentionSpan]:
    """One span per gold annotation; candidate lists may be empty."""
    spans = []
    for start, end, _ in doc.gold:
        surface = doc.surface(start, end)
        spans.append(MentionSpan(doc_id=doc.doc_id, start=start, end=end,
                                 surface=surface, candidates=index.lookup(surface)))
    return spans


def apply_coreference_heuristic(spans: Sequence[MentionSpan], doc: Document) -> list[MentionSpan]:
    """Let short mentions inherit candidates from longer containing mentions.

    A span whose token sequence is a strict contiguous subsequence of a
    longer (>= 2 token) span's sequence takes over that span's candidate
    list, inheriting from the earliest such span by (start, end), the first
    in list order on a tie; chains resolve to their root so the operation
    is idempotent. Every strict contiguous sub-sequence of each longer span
    is mapped to its earliest container once, so each span is one lookup.
    An inheriting span shares its root's candidate list, as a root shares
    the index's: callers keep the spans of every document they annotate.
    """
    tokens = [tuple(doc.tokens[s.start:s.end + 1]) for s in spans]
    container: dict[tuple[str, ...], int] = {}
    for j in sorted(range(len(spans)), key=lambda j: (spans[j].start, spans[j].end)):
        long = tokens[j]
        for length in range(1, len(long)):
            for i in range(len(long) - length + 1):
                container.setdefault(long[i:i + length], j)
    link = [container.get(t) for t in tokens]

    def root(i: int) -> int:
        while link[i] is not None:
            i = link[i]
        return i

    out = []
    for i, span in enumerate(spans):
        r = root(i)
        if r == i:
            out.append(span)
        else:
            out.append(MentionSpan(span.doc_id, span.start, span.end, span.surface,
                                   spans[r].candidates))
    return out


def candidate_recall(docs: Iterable[Document], index: AliasIndex,
                     ks: Sequence[int] = (30, 10)) -> dict[int, float]:
    """Fraction of gold mentions whose entity is among the first k candidates."""
    total = 0
    hits = {k: 0 for k in ks}
    for doc in docs:
        for start, end, entity in doc.gold:
            total += 1
            cands = index.lookup(doc.surface(start, end))
            for k in ks:
                if any(c.entity_id == entity for c in cands[:k]):
                    hits[k] += 1
    if total == 0:
        return {k: 0.0 for k in ks}
    return {k: hits[k] / total for k in ks}
