"""The text readers on corrupt input: each file either parses or raises a
ValueError that names the file, never another exception."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from e2el import candidates, cli, corpus, embeddings, inference
from e2el.config import RunConfig

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

SAMPLES = {
    "jsonl": ('{"doc_id": "d1", "tokens": ["New", "York", "wins"], "gold": [[0, 1, "NYC"]]}\n'
              '{"doc_id": "d2", "tokens": ["Paris", "été"], "gold": [[0, 0, "Paris"]]}\n',
              corpus.parse_corpus_jsonl),
    "conll": ("-DOCSTART- (d1)\nNew\tB\tNYC\nYork\tI\tNYC\nwins\tO\n\n"
              "-DOCSTART- (d2)\nParis\tB\tParis\nété\n",
              corpus.parse_conll_aida),
    "sniffed": ("-DOCSTART- (d1)\nNew\tB\tNYC\nYork\tI\tNYC\nwins\n", cli.load_corpus),
    "counts": ("New York\tNYC\t7\nNew York\tNew_York_State\t3\nété\tSummer\t2\n",
               lambda path: candidates.build_index([path])),
    "priors": ("New York\tNYC\t0.7\nNew York\tNew_York_State\t0.3\nété\tSummer\t1.0\n",
               candidates.load_prior_index),
    "annotations": ('{"doc_id": "d1", "start": 0, "end": 1, "entity": "NYC", "score": 0.5}\n'
                    '{"doc_id": "d2", "start": 0, "end": 0, "entity": "Paris", "score": null}\n',
                    inference.read_annotations),
    "vectors": ("3 2\nNew 0.5 -1.25\nété 2.0 1e-3\nYork -0.75 3\n",
                embeddings.load_text_embeddings),
    "config": (json.dumps({"seed": 3, "train.gamma": 0.25, "train.regime": "gold_spans",
                           "model.use_global": True, "train.max_steps": 10,
                           "encoder.dropout_keep": 0.5, "paths.checkpoint": "m.ckpt",
                           "attention.keep": 4}, indent=1) + "\n",
               RunConfig.load),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_sample_parses(tmp_path, name):
    text, reader = SAMPLES[name]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    reader(str(path))


@pytest.mark.parametrize("name", sorted(set(SAMPLES) - {"config"}))
def test_non_utf8_names_file_and_line(tmp_path, name):
    text, reader = SAMPLES[name]
    lines = text.encode("utf-8").split(b"\n")
    lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
    path = tmp_path / name
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=f"{path}:2: not valid UTF-8"):
        reader(str(path))


def test_non_utf8_config_names_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(b'{"train.gamma": "\xff"}')
    with pytest.raises(ValueError, match=f"{path}: not valid UTF-8"):
        RunConfig.load(str(path))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_mutated_bytes_parse_or_raise_value_error(tmp_path, name):
    text, reader = SAMPLES[name]
    blob = text.encode("utf-8")
    path = str(tmp_path / f"mutated-{name}")

    @SETTINGS
    @given(edits=st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                          min_size=1, max_size=4),
           cut=st.integers(1, len(blob)))
    def check(edits, cut):
        corrupt = bytearray(blob)
        for offset, byte in edits:
            corrupt[offset] = byte
        with open(path, "wb") as fh:
            fh.write(corrupt[:cut])
        try:
            reader(path)
        except ValueError as exc:
            assert path in str(exc)

    check()
