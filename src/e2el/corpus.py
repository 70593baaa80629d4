"""Corpus ingestion: the JSON-lines document schema and the CoNLL importer.

JSON-lines is the canonical format, one document per line:
``{"doc_id": ..., "tokens": [...], "gold": [[start, end, entity_id], ...]}``
with inclusive token offsets. The tab-separated importer converts the
token-per-line format (``token<TAB>B|I<TAB>entity_id``, documents split on
``-DOCSTART-`` lines) into the same structure; mentions tagged ``--NME--``
or ``NIL`` have no resolvable knowledge-base entry and produce no gold span.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

NIL_MARKERS = {"--NME--", "NIL"}
_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # what surrogateescape makes of a stray byte


def text_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of a UTF-8 text file; a byte that is not UTF-8 names path:line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and _NOT_UTF8.search(line):
                raise ValueError(f"{path}:{lineno}: not valid UTF-8")
            yield lineno, line


@dataclass
class Document:
    doc_id: str
    tokens: list[str]
    gold: list[tuple[int, int, str]] = field(default_factory=list)

    def __post_init__(self):
        if not self.tokens:
            raise ValueError(f"document {self.doc_id!r} has no tokens")
        seen = set()
        for start, end, entity in self.gold:
            if not (0 <= start <= end < len(self.tokens)):
                raise ValueError(
                    f"document {self.doc_id!r}: gold span [{start}, {end}] out of "
                    f"bounds for {len(self.tokens)} tokens")
            key = (start, end, entity)
            if key in seen:
                raise ValueError(f"document {self.doc_id!r}: duplicate gold span {key}")
            seen.add(key)

    def surface(self, start: int, end: int) -> str:
        return " ".join(self.tokens[start:end + 1])


def parse_corpus_jsonl(path: str) -> list[Document]:
    """Parse one document per line, reporting the first offending line."""
    docs: list[Document] = []
    seen_ids: set[str] = set()
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        try:
            doc = _document_from_record(rec)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if doc.doc_id in seen_ids:
            raise ValueError(f"{path}:{lineno}: duplicate doc_id {doc.doc_id!r}")
        seen_ids.add(doc.doc_id)
        docs.append(doc)
    return docs


def _document_from_record(rec) -> Document:
    if not isinstance(rec, dict):
        raise ValueError("document record must be a JSON object")
    for key in ("doc_id", "tokens"):
        if key not in rec:
            raise ValueError(f"missing field {key!r}")
    doc_id = rec["doc_id"]
    tokens = rec["tokens"]
    if not isinstance(doc_id, str) or not isinstance(tokens, list) \
            or not all(isinstance(t, str) for t in tokens):
        raise ValueError("doc_id must be a string and tokens a list of strings")
    if not all(tokens):
        raise ValueError(f"token {tokens.index('')} is empty")
    gold = []
    for item in rec.get("gold", []):
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise ValueError(f"gold entry {item!r} must be [start, end, entity_id]")
        start, end, entity = item
        if type(start) is not int or type(end) is not int or not isinstance(entity, str):
            raise ValueError(f"gold entry {item!r} must be [int, int, str]")
        gold.append((start, end, entity))
    return Document(doc_id=doc_id, tokens=tokens, gold=gold)


def write_corpus_jsonl(docs: Iterable[Document], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            rec = {"doc_id": doc.doc_id, "tokens": doc.tokens,
                   "gold": [list(g) for g in doc.gold]}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def parse_conll_aida(path: str) -> list[Document]:
    """Convert the tab-separated B/I format into Documents.

    Gold spans are contiguous B/I runs tagged with an entity id; runs whose
    entity is a NIL marker are dropped (only knowledge-base entities are
    linkable).
    """
    docs: list[Document] = []
    doc_id: str | None = None
    tokens: list[str] = []
    gold: list[tuple[int, int, str]] = []
    run_start: int | None = None
    run_entity: str | None = None
    doc_count = 0
    seen_ids: set[str] = set()

    def close_run():
        nonlocal run_start, run_entity
        if run_start is not None:
            if run_entity not in NIL_MARKERS:
                gold.append((run_start, len(tokens) - 1, run_entity))
            run_start, run_entity = None, None

    def close_doc():
        nonlocal tokens, gold, doc_id
        close_run()
        if doc_id is not None:
            if not tokens:
                raise ValueError(f"{path}: document {doc_id!r} has no tokens")
            docs.append(Document(doc_id=doc_id, tokens=tokens, gold=list(gold)))
        tokens, gold = [], []
        doc_id = None

    for lineno, raw in text_lines(path):
        line = raw.rstrip("\n")
        if line.startswith("-DOCSTART-"):
            close_doc()
            doc_count += 1
            label = line[len("-DOCSTART-"):].strip().strip("()")
            doc_id = label if label else f"doc{doc_count}"
            if doc_id in seen_ids:
                raise ValueError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
            seen_ids.add(doc_id)
            continue
        if not line.strip():
            close_run()  # sentence break also terminates a mention
            continue
        if doc_id is None:
            raise ValueError(f"{path}:{lineno}: token before any -DOCSTART- line")
        cols = line.split("\t")
        token = cols[0]
        if not token:
            raise ValueError(f"{path}:{lineno}: empty token")
        tag = cols[1] if len(cols) > 1 and cols[1] else "O"
        if tag == "B":
            close_run()
            if len(cols) < 3 or not cols[2]:
                raise ValueError(f"{path}:{lineno}: linked token without an entity")
            run_start, run_entity = len(tokens), cols[2]
        elif tag == "I":
            if run_start is None:
                raise ValueError(f"{path}:{lineno}: I tag without a preceding B tag")
            entity = cols[2] if len(cols) > 2 and cols[2] else run_entity
            if entity != run_entity:
                raise ValueError(
                    f"{path}:{lineno}: entity {entity!r} differs from the "
                    f"mention's {run_entity!r}")
        elif tag == "O":
            close_run()
        else:
            raise ValueError(f"{path}:{lineno}: unknown tag {tag!r}")
        tokens.append(token)
    close_doc()
    return docs
