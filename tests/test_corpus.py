import json

import pytest

from e2el import corpus


class TestJsonl:
    def test_single_document(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"doc_id":"d1","tokens":["a"],"gold":[[0,0,"E1"]]}\n', encoding="utf-8")
        docs = corpus.parse_corpus_jsonl(str(p))
        assert len(docs) == 1
        assert docs[0].gold == [(0, 0, "E1")]

    def test_out_of_bounds_gold_names_doc_and_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"doc_id":"d9","tokens":["a","b","c"],"gold":[[0,5,"E1"]]}\n',
                     encoding="utf-8")
        with pytest.raises(ValueError) as err:
            corpus.parse_corpus_jsonl(str(p))
        assert "d9" in str(err.value) and ":1" in str(err.value)

    def test_invalid_json_names_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"doc_id":"d1","tokens":["a"]}\n{oops\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            corpus.parse_corpus_jsonl(str(p))

    def test_duplicate_doc_id(self, tmp_path):
        p = tmp_path / "c.jsonl"
        rec = '{"doc_id":"d1","tokens":["a"]}\n'
        p.write_text(rec + rec, encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate doc_id"):
            corpus.parse_corpus_jsonl(str(p))

    def test_large_round_trip(self, tmp_path):
        import numpy as np
        rng = np.random.default_rng(0)
        docs = []
        for i in range(1000):
            n = int(rng.integers(1, 12))
            tokens = [f"t{int(v)}" for v in rng.integers(0, 50, size=n)]
            gold = []
            if n >= 2:
                gold = [(0, 1, f"E{i % 7}")]
            docs.append(corpus.Document(f"d{i}", tokens, gold))
        p = str(tmp_path / "big.jsonl")
        corpus.write_corpus_jsonl(docs, p)
        loaded = corpus.parse_corpus_jsonl(p)
        assert loaded == docs

    def test_empty_token_names_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"doc_id":"d1","tokens":["a"]}\n{"doc_id":"d2","tokens":["x",""]}\n',
                     encoding="utf-8")
        with pytest.raises(ValueError, match=f"{p}:2: token 1 is empty"):
            corpus.parse_corpus_jsonl(str(p))

    def test_bool_gold_offset_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"doc_id":"d","tokens":["a","b"],"gold":[[0,true,"E"]]}\n',
                     encoding="utf-8")
        with pytest.raises(ValueError, match=":1: gold entry"):
            corpus.parse_corpus_jsonl(str(p))

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError, match="no tokens"):
            corpus.Document("d", [])

    def test_duplicate_gold_rejected(self):
        with pytest.raises(ValueError, match="duplicate gold"):
            corpus.Document("d", ["a", "b"], gold=[(0, 0, "E"), (0, 0, "E")])


class TestConllImporter:
    def test_b_i_run(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text(
            "-DOCSTART- (doc_a)\n"
            "New\tB\tNYC\n"
            "York\tI\tNYC\n"
            "wins\n",
            encoding="utf-8")
        docs = corpus.parse_conll_aida(str(p))
        assert len(docs) == 1
        assert docs[0].doc_id == "doc_a"
        assert docs[0].tokens == ["New", "York", "wins"]
        assert docs[0].gold == [(0, 1, "NYC")]

    def test_nme_dropped(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text(
            "-DOCSTART- (doc_a)\n"
            "Somebody\tB\t--NME--\n"
            "spoke\n",
            encoding="utf-8")
        docs = corpus.parse_conll_aida(str(p))
        assert docs[0].gold == []
        assert docs[0].tokens == ["Somebody", "spoke"]

    def test_two_document_fixture(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text(
            "-DOCSTART- (d1)\n"
            "EU\tB\tEuropean_Union\n"
            "rejects\n"
            "German\tB\tGermany\n"
            "call\n"
            "\n"
            "it\n"
            "said\n"
            "-DOCSTART- (d2)\n"
            "Peter\tB\tPeter_Blackburn\n"
            "Blackburn\tI\tPeter_Blackburn\n"
            "reports\n",
            encoding="utf-8")
        docs = corpus.parse_conll_aida(str(p))
        assert [d.doc_id for d in docs] == ["d1", "d2"]
        assert docs[0].tokens == ["EU", "rejects", "German", "call", "it", "said"]
        assert docs[0].gold == [(0, 0, "European_Union"), (2, 2, "Germany")]
        assert docs[1].gold == [(0, 1, "Peter_Blackburn")]

    def test_i_without_b(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("-DOCSTART- (d)\nYork\tI\tNYC\n", encoding="utf-8")
        with pytest.raises(ValueError, match="I tag without"):
            corpus.parse_conll_aida(str(p))

    def test_missing_entity_on_linked_token(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("-DOCSTART- (d)\nYork\tB\n", encoding="utf-8")
        with pytest.raises(ValueError, match="without an entity"):
            corpus.parse_conll_aida(str(p))

    def test_sentence_break_ends_mention(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text(
            "-DOCSTART- (d)\n"
            "New\tB\tNYC\n"
            "\n"
            "York\tB\tYork\n",
            encoding="utf-8")
        docs = corpus.parse_conll_aida(str(p))
        assert docs[0].gold == [(0, 0, "NYC"), (1, 1, "York")]

    def test_duplicate_doc_id_names_line(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("-DOCSTART- (d1)\nEU\tB\tE1\n-DOCSTART- (d1)\nit\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{p}:3: duplicate doc_id 'd1'"):
            corpus.parse_conll_aida(str(p))

    def test_empty_token_names_line(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("-DOCSTART- (d)\nEU\tB\tE1\n\tO\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{p}:3: empty token"):
            corpus.parse_conll_aida(str(p))
