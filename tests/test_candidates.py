import numpy as np
import pytest

import helpers
from e2el import binfile
from e2el import candidates as cand
from e2el.corpus import Document


def write_counts(tmp_path, rows, name="counts.tsv"):
    p = tmp_path / name
    p.write_text("".join(f"{s}\t{e}\t{c}\n" for s, e, c in rows), encoding="utf-8")
    return str(p)


class TestBuildIndex:
    def test_priors_from_counts(self, tmp_path):
        path = write_counts(tmp_path, [("Paris", "Paris_city", 900),
                                       ("Paris", "Paris_Hilton", 100)])
        index = cand.build_index([path])
        entries = index.lookup("Paris")
        assert [e.entity_id for e in entries] == ["Paris_city", "Paris_Hilton"]
        assert entries[0].prior == pytest.approx(0.9)
        assert entries[1].prior == pytest.approx(0.1)

    def test_counts_merge_across_files(self, tmp_path):
        a = write_counts(tmp_path, [("X", "E1", 10)], "a.tsv")
        b = write_counts(tmp_path, [("X", "E1", 30), ("X", "E2", 60)], "b.tsv")
        index = cand.build_index([a, b])
        entries = {e.entity_id: e.prior for e in index.lookup("X")}
        assert entries["E1"] == pytest.approx(0.4)  # (10 + 30) / 100
        assert entries["E2"] == pytest.approx(0.6)

    def test_truncation_keeps_unrenormalized_prior(self, tmp_path):
        path = write_counts(tmp_path, [("Paris", "Paris_city", 900),
                                       ("Paris", "Paris_Hilton", 100)])
        index = cand.build_index([path], s=1)
        entries = index.lookup("Paris")
        assert len(entries) == 1
        assert entries[0].entity_id == "Paris_city"
        assert entries[0].prior == pytest.approx(0.9)

    def test_priors_sum_to_one_before_truncation(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [(f"s{i}", f"E{j}", int(rng.integers(1, 50)))
                for i in range(20) for j in range(int(rng.integers(1, 8)))]
        path = write_counts(tmp_path, rows)
        index = cand.build_index([path], s=100)
        for surface in index.entries:
            assert sum(e.prior for e in index.lookup(surface)) == pytest.approx(1.0, abs=1e-6)

    def test_sort_ties_lexicographic(self, tmp_path):
        path = write_counts(tmp_path, [("t", "B", 5), ("t", "A", 5), ("t", "C", 10)])
        index = cand.build_index([path])
        assert [e.entity_id for e in index.lookup("t")] == ["C", "A", "B"]

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("onlyonefield\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            cand.build_index([str(p)])

    def test_nonpositive_count(self, tmp_path):
        path = write_counts(tmp_path, [("s", "E", 0)])
        with pytest.raises(ValueError, match="positive"):
            cand.build_index([path])


class TestTextFormats:
    """Count and prior files read through one row reader: on random files,
    with a bad line now and then, each loader gives the entries, or the
    error, of the loader it replaced."""

    SURFACES = ["Paris", " Paris", "New York", "New  York ", "été", "a\u00a0b", "x"]

    @staticmethod
    def value(rng, kind):
        bad = {"counts": ["0", "-2", "1.5", "x", ""], "priors": ["0", "1.5", "nan", "x", ""]}
        if rng.random() < 0.03:
            return str(rng.choice(bad[kind]))
        return str(int(rng.integers(1, 60))) if kind == "counts" else repr(float(rng.random()))

    def random_file(self, rng, path, kind):
        lines = []
        for _ in range(int(rng.integers(1, 20))):
            if rng.random() < 0.02:
                lines.append("two\tfields")
            elif rng.random() < 0.05:
                lines.append("  ")
            else:
                lines.append(f"{rng.choice(self.SURFACES)}\tE{int(rng.integers(0, 40))}"
                             f"\t{self.value(rng, kind)}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    @staticmethod
    def outcome(load):
        try:
            index = load()
        except ValueError as exc:
            return str(exc)
        return index.entries, index.s, index.max_span_length

    def test_counts_match_reference(self, tmp_path):
        rng = np.random.default_rng(21)
        errors = 0
        for _ in range(80):
            paths = [self.random_file(rng, tmp_path / f"c{i}.tsv", "counts")
                     for i in range(int(rng.integers(1, 4)))]
            s = int(rng.integers(1, 6))
            got = self.outcome(lambda: cand.build_index(paths, s=s, max_span_length=3))
            want = self.outcome(lambda: helpers.reference_build_index(paths, s=s,
                                                                      max_span_length=3))
            assert got == want
            errors += isinstance(got, str)
        assert 0 < errors < 80  # both outcomes are exercised

    def test_priors_match_reference(self, tmp_path):
        rng = np.random.default_rng(22)
        errors = 0
        for _ in range(150):
            path = self.random_file(rng, tmp_path / "p.tsv", "priors")
            s = int(rng.integers(1, 6))
            got = self.outcome(lambda: cand.load_prior_index(path, s=s))
            want = self.outcome(lambda: helpers.reference_load_prior_index(path, s=s))
            assert got == want
            errors += isinstance(got, str)
        assert 0 < errors < 150

    @pytest.mark.parametrize("load, value", [(lambda p: cand.build_index([p]), "3"),
                                             (cand.load_prior_index, "0.5")])
    def test_blank_surface_rejected(self, tmp_path, load, value):
        p = tmp_path / "rows.tsv"
        p.write_text(f"Paris\tE1\t{value}\n \tE2\t{value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{p}:2: empty surface$"):
            load(str(p))


class TestLookup:
    @pytest.fixture
    def index(self, tmp_path):
        path = write_counts(tmp_path, [("New York", "NYC", 3), ("New York", "NY_state", 1)])
        return cand.build_index([path])

    def test_known_surface(self, index):
        assert [e.entity_id for e in index.lookup("New York")] == ["NYC", "NY_state"]

    def test_unknown_surface(self, index):
        assert index.lookup("Old York") == []

    def test_whitespace_normalization(self, index):
        assert index.lookup("  New   York ") == index.lookup("New York")

    def test_case_preserved(self, index):
        assert index.lookup("new york") == []


class TestEnumerateSpans:
    def make_index(self, surfaces, l_max=6):
        entries = {cand.normalize_surface(s): [cand.CandidateEntry("E_" + s, 1.0)]
                   for s in surfaces}
        return cand.AliasIndex(entries, s=30, max_span_length=l_max)

    def test_direct_enumeration(self):
        doc = Document("d", ["Barack", "Obama", "spoke"])
        index = self.make_index(["Barack Obama", "Obama"])
        spans = cand.enumerate_spans(doc, index)
        assert [(s.start, s.end) for s in spans] == [(0, 1), (1, 1)]

    def test_empty_index(self):
        doc = Document("d", ["a", "b"])
        assert cand.enumerate_spans(doc, cand.AliasIndex({}, 30, 6)) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        vocab = [f"t{i}" for i in range(12)]
        for _ in range(10):
            tokens = [vocab[i] for i in rng.integers(0, len(vocab), size=50)]
            doc = Document("d", tokens)
            # dense synthetic index over random sub-phrases
            surfaces = set()
            for _ in range(60):
                i = int(rng.integers(0, 50))
                j = min(49, i + int(rng.integers(0, 6)))
                surfaces.add(" ".join(tokens[i:j + 1]))
            index = self.make_index(surfaces, l_max=6)
            got = [(s.start, s.end) for s in cand.enumerate_spans(doc, index)]
            expect = [(q, r)
                      for q in range(50)
                      for r in range(q, min(q + 6, 50))
                      if index.lookup(" ".join(tokens[q:r + 1]))]
            assert got == sorted(expect)

    def test_respects_max_span_length(self):
        doc = Document("d", ["a"] * 10)
        index = self.make_index(["a a a", "a"], l_max=2)
        spans = cand.enumerate_spans(doc, index)
        assert all(s.length <= 2 for s in spans)

    def test_matches_lookup_oracle_on_random_documents(self):
        # tokens with leading, trailing and inner whitespace or only
        # whitespace, keys of the empty surface and empty candidate lists
        pieces = ["a", "b", "cd", " a", "b ", "a  b", "\tcd", "a\nb", " ", "\t", "  "]
        rng = np.random.default_rng(11)
        reached = {"ends at max length": 0, "ends at doc end": 0, "blank inside": 0}
        for k in range(500):
            n = int(rng.integers(1, 13))
            doc = Document(f"d{k}", [pieces[i] for i in rng.integers(0, len(pieces), size=n)])
            l_max = int(rng.integers(1, 5))
            entries = {}
            for _ in range(int(rng.integers(0, 15))):
                q = int(rng.integers(0, n))
                r = min(n - 1, q + int(rng.integers(0, l_max)))
                surface = cand.normalize_surface(doc.surface(q, r))
                entries[surface] = [] if rng.random() < 0.2 else \
                    [cand.CandidateEntry(f"E{q}_{r}", 1.0)]
            index = cand.AliasIndex(entries, s=30, max_span_length=l_max)
            got = cand.enumerate_spans(doc, index)
            want = helpers.reference_enumerate_spans(doc, index)
            assert got == want
            assert all(g.candidates is w.candidates for g, w in zip(got, want))
            for span in got:
                reached["ends at max length"] += span.length == l_max
                reached["ends at doc end"] += span.end == n - 1
                reached["blank inside"] += any(not t.strip() for t in doc.tokens[span.start:
                                                                                  span.end + 1])
        assert all(count > 0 for count in reached.values()), reached


class TestSpanPrefixes:
    """`AliasIndex.prefixes` and the dead-prefix stop of `enumerate_spans`."""

    @staticmethod
    def brute_prefixes(surfaces):
        """Each surface cut before each of its spaces."""
        return {surface[:i] for surface in surfaces for i, ch in enumerate(surface) if ch == " "}

    def test_prefixes_match_brute_force_from_every_loader(self, tmp_path):
        rng = np.random.default_rng(23)
        words = ["a", "b", "New", "York", "été", "x"]
        for case in range(20):
            surfaces = {" ".join(rng.choice(words, size=int(rng.integers(1, 5))))
                        for _ in range(int(rng.integers(1, 25)))}
            rows = [(surface, f"E{k}", int(rng.integers(1, 9)))
                    for surface in sorted(surfaces) for k in range(int(rng.integers(1, 3)))]
            counts = write_counts(tmp_path, rows, f"c{case}.tsv")
            priors = write_counts(tmp_path, [(s, e, 1.0 / c) for s, e, c in rows],
                                  f"p{case}.tsv")
            built = cand.build_index([counts], s=2)
            cand.save_index(built, str(tmp_path / "index.bin"))
            direct = dict.fromkeys(surfaces | {"", " a", "a  b", "a\tb c"}, [])
            for index in (built, cand.load_prior_index(priors),
                          cand.load_index(str(tmp_path / "index.bin")),
                          cand.AliasIndex(direct)):
                assert index.prefixes == self.brute_prefixes(index.entries), case

    def test_blank_token_after_a_surface_extends_it(self):
        doc = Document("d", ["b", " "])
        entry = [cand.CandidateEntry("E", 1.0)]
        index = cand.AliasIndex({"": entry, "b": entry})
        got = cand.enumerate_spans(doc, index)
        assert [(s.start, s.end) for s in got] == [(0, 0), (0, 1), (1, 1)]
        assert got == helpers.reference_enumerate_spans(doc, index)

    def test_matches_lookup_oracle_on_prefix_chains(self):
        # surfaces that are prefixes of longer ones, surfaces absent from the
        # document that keep a key alive, blank tokens after a dead key, and
        # tokens with inner whitespace
        pieces = ["a", "b", "cd", "a b", "b\tcd", " a ", " ", "\t"]
        rng = np.random.default_rng(29)
        reached = {"prefix surface": 0, "blank after dead key": 0, "inner whitespace": 0}
        for k in range(400):
            n = int(rng.integers(1, 14))
            doc = Document(f"d{k}", [pieces[i] for i in rng.integers(0, len(pieces), size=n)])
            l_max = int(rng.integers(1, 6))
            entries = {}
            for _ in range(int(rng.integers(0, 8))):
                q = int(rng.integers(0, n))
                r = min(n - 1, q + int(rng.integers(0, l_max + 1)))
                words = cand.normalize_surface(doc.surface(q, r)).split()
                if rng.random() < 0.3:
                    words.append(str(rng.choice(["a", "zz"])))  # may not occur in the doc
                lengths = range(1, len(words) + 1) if rng.random() < 0.5 else [len(words)]
                for m in lengths:
                    entries[" ".join(words[:m])] = [cand.CandidateEntry(f"E{q}_{m}", 1.0)]
            index = cand.AliasIndex(entries, s=30, max_span_length=l_max)
            got = cand.enumerate_spans(doc, index)
            want = helpers.reference_enumerate_spans(doc, index)
            assert got == want
            assert all(g.candidates is w.candidates for g, w in zip(got, want))
            for span in got:
                key = cand.normalize_surface(span.surface)
                tokens = doc.tokens[span.start:span.end + 1]
                reached["prefix surface"] += key in index.prefixes
                reached["blank after dead key"] += (bool(key) and key not in index.prefixes
                                                    and not tokens[-1].strip())
                reached["inner whitespace"] += any(len(t.split()) > 1 for t in tokens)
        assert all(count >= 20 for count in reached.values()), reached


class TestCoreferenceHeuristic:
    def span(self, doc, start, end, cands):
        return cand.MentionSpan(doc_id=doc.doc_id, start=start, end=end,
                                surface=doc.surface(start, end),
                                candidates=[cand.CandidateEntry(e, p) for e, p in cands])

    def test_short_inherits_from_long(self):
        doc = Document("d", ["Alan", "Shearer", "scored", "and", "Alan", "celebrated"])
        long = self.span(doc, 0, 1, [("Alan_Shearer", 0.9)])
        short = self.span(doc, 4, 4, [("Alan_Turing", 0.6), ("Alan_Shearer", 0.1)])
        out = cand.apply_coreference_heuristic([long, short], doc)
        assert [c.entity_id for c in out[1].candidates] == ["Alan_Shearer"]
        assert out[1].candidates[0].prior == pytest.approx(0.9)
        assert out[0].candidates == long.candidates

    def test_no_multi_token_spans_is_identity(self):
        doc = Document("d", ["a", "b", "a"])
        spans = [self.span(doc, 0, 0, [("E1", 1.0)]), self.span(doc, 2, 2, [("E2", 1.0)])]
        out = cand.apply_coreference_heuristic(spans, doc)
        assert [s.candidates for s in out] == [s.candidates for s in spans]

    def test_earliest_longer_span_wins(self):
        doc = Document("d", ["Alan", "Shearer", "then", "Alan", "Turing", "then", "Alan"])
        first = self.span(doc, 0, 1, [("Shearer", 1.0)])
        second = self.span(doc, 3, 4, [("Turing", 1.0)])
        short = self.span(doc, 6, 6, [("Someone", 1.0)])
        out = cand.apply_coreference_heuristic([first, second, short], doc)
        assert out[2].candidates[0].entity_id == "Shearer"

    def test_idempotent(self):
        doc = Document("d", ["Sir", "Alan", "Shearer", "and", "Alan", "Shearer", "and", "Alan"])
        spans = [
            self.span(doc, 0, 2, [("Sir_AS", 1.0)]),
            self.span(doc, 4, 5, [("AS", 1.0)]),
            self.span(doc, 7, 7, [("A", 1.0)]),
        ]
        once = cand.apply_coreference_heuristic(spans, doc)
        twice = cand.apply_coreference_heuristic(once, doc)
        assert [[c.entity_id for c in s.candidates] for s in once] == \
            [[c.entity_id for c in s.candidates] for s in twice]
        # chains resolve to the root list
        assert once[1].candidates[0].entity_id == "Sir_AS"
        assert once[2].candidates[0].entity_id == "Sir_AS"


    def test_matches_all_pairs_oracle(self):
        # seeded span lists over a three-word vocabulary, so that equal
        # token sequences recur at different positions, against
        # `helpers.reference_coreference_heuristic`
        rng = np.random.default_rng(61)
        l_max = 6
        seen = dict.fromkeys([f"length {k}" for k in range(1, l_max + 1)] + [
            "equal tokens elsewhere", "inherits", "chain", "unsorted", "repeated key",
            "tied containers"], 0)
        for case in range(600):
            n = int(rng.integers(1, 30))
            doc = Document("d", [str(t) for t in rng.choice(["a", "b", "c"], size=n,
                                                            p=[0.5, 0.3, 0.2])])
            spans = []
            for k in range(int(rng.integers(0, 16))):
                start = int(rng.integers(0, n))
                end = min(n - 1, start + int(rng.integers(0, l_max)))
                if spans and rng.random() < 0.15:  # a second span on an earlier key
                    other = spans[int(rng.integers(0, len(spans)))]
                    start, end = other.start, other.end
                spans.append(self.span(doc, start, end, [(f"E{case}.{k}", 1.0)]))
            if rng.random() < 0.5:
                spans.sort(key=lambda sp: (sp.start, sp.end))
            out = cand.apply_coreference_heuristic(spans, doc)
            ref = helpers.reference_coreference_heuristic(spans, doc)
            assert out == ref
            assert [o is sp for o, sp in zip(out, spans)] == [r is sp for r, sp in zip(ref, spans)]
            # an inheriting span shares its root's list, not a copy of it
            assert all(any(o.candidates is sp.candidates for sp in spans) for o in out)

            tokens = [tuple(doc.tokens[sp.start:sp.end + 1]) for sp in spans]
            keys = [(sp.start, sp.end) for sp in spans]

            def containers(i):
                return sorted((keys[j], j) for j in range(len(spans)) if len(tokens[j]) >= 2
                              and helpers._is_strict_contiguous_subsequence(tokens[i], tokens[j]))

            for i, sp in enumerate(spans):
                seen[f"length {sp.length}"] += 1
                seen["equal tokens elsewhere"] += any(
                    t == tokens[i] and keys[j] != keys[i] for j, t in enumerate(tokens))
                found = containers(i)
                if found:
                    seen["inherits"] += 1
                    seen["chain"] += bool(containers(found[0][1]))
                    seen["tied containers"] += len(found) > 1 and found[0][0] == found[1][0]
            seen["unsorted"] += keys != sorted(keys)
            seen["repeated key"] += len(set(keys)) < len(keys)
        assert min(seen.values()) >= 20, seen

class TestIndexPersistence:
    def test_binary_round_trip(self, tmp_path):
        path = write_counts(tmp_path, [("Paris", "Paris_city", 900),
                                       ("Paris", "Paris_Hilton", 100),
                                       ("a b", "E1", 7)])
        index = cand.build_index([path], s=5, max_span_length=4)
        out = str(tmp_path / "index.bin")
        cand.save_index(index, out)
        loaded = cand.load_index(out)
        assert loaded.s == 5 and loaded.max_span_length == 4
        assert loaded.entries == index.entries

    def test_prior_tsv_accepted(self, tmp_path):
        p = tmp_path / "priors.tsv"
        p.write_text("Paris\tParis_city\t0.9\nParis\tParis_Hilton\t0.1\n", encoding="utf-8")
        index = cand.load_any_index(str(p))
        assert [e.entity_id for e in index.lookup("Paris")] == ["Paris_city", "Paris_Hilton"]

    def test_prior_out_of_range(self, tmp_path):
        p = tmp_path / "priors.tsv"
        p.write_text("s\tE\t1.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="outside"):
            cand.load_prior_index(str(p))

    @pytest.mark.parametrize("prior", [float("nan"), -0.5, 0.0, 1.5])
    def test_binary_prior_out_of_range(self, tmp_path, prior):
        # magic 4 + header 12, surface record 2 + 5 + 4, first candidate 2 + 1 + 8
        index = cand.AliasIndex({"Paris": [cand.CandidateEntry("A", 0.5),
                                           cand.CandidateEntry("B", prior)]})
        out = str(tmp_path / "index.bin")
        cand.save_index(index, out)
        with pytest.raises(ValueError) as err:
            cand.load_index(out)
        msg = str(err.value)
        assert msg.startswith(f"{out}: prior ") and "outside (0, 1]" in msg
        assert "'Paris'" in msg and "'B'" in msg
        assert msg.endswith("at byte 38 reading candidate")

    def test_binary_prior_bounds_inclusive(self, tmp_path):
        index = cand.AliasIndex({"a": [cand.CandidateEntry("A", 1.0 + 1e-6)],
                                 "b": [cand.CandidateEntry("B", 1e-300)]})
        out = str(tmp_path / "index.bin")
        cand.save_index(index, out)
        assert cand.load_index(out).entries == index.entries


    @staticmethod
    def write_records(path, surfaces):
        """An index file whose records `save_index` could not write."""
        with open(path, "wb") as fh:
            fh.write(cand.INDEX_MAGIC + cand.INDEX_HEADER.pack(30, 6, len(surfaces)))
            for surface, cands in surfaces:
                binfile.write_record(fh, surface, binfile.U32, len(cands), "surface")
                for entity, prior in cands:
                    binfile.write_record(fh, entity, binfile.F64, prior, "candidate")

    def test_binary_repeated_surface(self, tmp_path):
        # magic 4 + header 12; "Paris" 2 + 5 + 4 and 2 + 1 + 8; "Rome" 2 + 4 + 4 and 2 + 1 + 8
        out = str(tmp_path / "index.bin")
        self.write_records(out, [("Paris", [("A", 1.0)]), ("Rome", [("R", 1.0)]),
                                 ("Paris", [("B", 1.0)])])
        with pytest.raises(ValueError) as err:
            cand.load_index(out)
        assert str(err.value) == f"{out}: repeated surface 'Paris' at byte 59 reading surface"

    def test_binary_repeated_entity(self, tmp_path):
        # the text prior format rejects the same pair as a duplicate entry
        out = str(tmp_path / "index.bin")
        self.write_records(out, [("Paris", [("A", 0.5), ("B", 0.25), ("A", 0.25)])])
        with pytest.raises(ValueError) as err:
            cand.load_index(out)
        assert str(err.value) == (f"{out}: repeated entity 'A' for surface 'Paris' "
                                  f"at byte 49 reading candidate")

    @pytest.mark.parametrize("s, max_len", [(0, 6), (30, 0), (-3, 6), (30, -3)])
    def test_sizes_below_one_rejected(self, s, max_len):
        with pytest.raises(ValueError, match="must both be at least 1"):
            cand.AliasIndex({}, s=s, max_span_length=max_len)

    @pytest.mark.parametrize("s, max_len", [(0, 6), (30, 0)])
    def test_binary_header_sizes_below_one(self, tmp_path, s, max_len):
        out = tmp_path / "index.bin"
        out.write_bytes(cand.INDEX_MAGIC + cand.INDEX_HEADER.pack(s, max_len, 0))
        with pytest.raises(ValueError) as err:
            cand.load_index(str(out))
        msg = str(err.value)
        assert msg.startswith(f"{out}: candidate limit s={s} and max span length {max_len}")
        assert msg.endswith("at byte 4 reading header")

class TestCandidateRecall:
    def test_hand_countable_fixture(self, tmp_path):
        # surface "big" has 35 candidates; gold E31 ranks 32nd by count so it
        # is outside both top 10 and top 30. "mid" gold ranks 12th (in 30,
        # not 10); "easy" gold ranks 1st.
        rows = [("big", f"E{i:02d}", 1000 - i) for i in range(35)]
        rows += [("mid", f"M{i:02d}", 500 - i) for i in range(15)]
        rows += [("easy", "TOP", 10)]
        path = write_counts(tmp_path, rows)
        index = cand.build_index([path], s=30)
        docs = [
            Document("d1", ["big"], gold=[(0, 0, "E31")]),
            Document("d2", ["mid"], gold=[(0, 0, "M11")]),
            Document("d3", ["easy"], gold=[(0, 0, "TOP")]),
            Document("d4", ["easy"], gold=[(0, 0, "TOP")]),
        ]
        recall = cand.candidate_recall(docs, index, ks=(30, 10))
        assert recall[30] == pytest.approx(3 / 4)
        assert recall[10] == pytest.approx(2 / 4)
