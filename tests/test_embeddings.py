import numpy as np
import pytest

import helpers
from e2el import embeddings as emb


def write_text(tmp_path, lines, name="vecs.txt"):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(p)


class TestTextFormat:
    def test_two_line_file(self, tmp_path):
        path = write_text(tmp_path, ["2 2", "a 1.0 0.0", "b 0.0 1.0"])
        vocab, matrix = emb.load_text_embeddings(path)
        assert set(vocab) == {"a", "b"}
        assert matrix.shape == (2, 2)
        assert np.allclose(matrix[vocab["a"]], [1, 0])

    def test_dimension_error_names_line(self, tmp_path):
        path = write_text(tmp_path, ["2 3", "a 1.0 0.0 0.5", "b 0.0 1.0"])
        with pytest.raises(ValueError, match=":3"):
            emb.load_text_embeddings(path)

    def test_duplicate_key(self, tmp_path):
        path = write_text(tmp_path, ["2 1", "a 1.0", "a 2.0"])
        with pytest.raises(ValueError, match="duplicate"):
            emb.load_text_embeddings(path)

    def test_malformed_float(self, tmp_path):
        path = write_text(tmp_path, ["1 1", "a x"])
        with pytest.raises(ValueError, match=":2"):
            emb.load_text_embeddings(path)

    def test_non_finite_value_names_line(self, tmp_path):
        path = write_text(tmp_path, ["3 2", "a 1.0 0.0", "", "b nan 1.0", "c 0.0 inf"])
        with pytest.raises(ValueError, match=r"vecs\.txt:4: non-finite"):
            emb.load_text_embeddings(path)

    def test_count_mismatch(self, tmp_path):
        path = write_text(tmp_path, ["3 1", "a 1.0", "b 2.0"])
        with pytest.raises(ValueError, match="declared 3"):
            emb.load_text_embeddings(path)

    def test_declared_count_beyond_file_size(self, tmp_path):
        # 10^12 rows of dim 4 would be a 14.6 TiB matrix; each row needs >= 10 bytes
        path = write_text(tmp_path, ["1000000000000 4", "a 1 2 3 4"])
        with pytest.raises(ValueError, match=r"vecs\.txt:1: .*1000000000000 rows"):
            emb.load_text_embeddings(path)

    def test_declared_count_at_minimal_row_size(self, tmp_path):
        # "k 1 2\n" is 2 * (dim + 1) bytes, so three such rows fit exactly
        path = write_text(tmp_path, ["3 2", "a 1 2", "b 3 4", "c 5 6"])
        vocab, matrix = emb.load_text_embeddings(path)
        assert matrix.tolist() == [[1, 2], [3, 4], [5, 6]]
        path = write_text(tmp_path, ["4 2", "a 1 2", "b 3 4", "c 5 6"], name="short.txt")
        with pytest.raises(ValueError, match=r"short\.txt:1: .*4 rows"):
            emb.load_text_embeddings(path)

    def test_large_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        n, d = 10_000, 8
        vocab = {f"w{i}": i for i in range(n)}
        matrix = rng.standard_normal((n, d)).astype(np.float32)
        path = str(tmp_path / "big.txt")
        emb.save_text_embeddings(vocab, matrix, path)
        vocab2, matrix2 = emb.load_text_embeddings(path)
        assert vocab2 == vocab
        assert np.array_equal(matrix2, matrix)


SEPARATORS = [" ", "\t", "  ", "\xa0", " \t "]
ODD_TOKENS = ["1_0", "١٢", "nan", "inf", "1e400", "-0", "x"]


def random_text_vectors(rng, path, rows, dim, faults):
    """A text vector file across more than one parse block, its separators,
    blank lines and line ends varied, with `faults` random damages."""
    keys = [f"w{i}" if i % 7 else f"ß{i}" for i in range(rows)]
    values = rng.standard_normal((rows, dim)).astype(np.float32)
    fields = [[key] + [repr(float(v)) if rng.random() < 0.8 else f"{v:.3e}" for v in row]
              for key, row in zip(keys, values)]
    for _ in range(faults):
        row = fields[rng.integers(rows)]
        kind = rng.integers(5)
        if kind == 0:
            row[rng.integers(1, len(row))] = ODD_TOKENS[rng.integers(len(ODD_TOKENS))]
        elif kind == 1:
            del row[1:]  # a key with no values
        elif kind == 2:
            row.append("0.5")
        elif kind == 3 and len(row) > 1:
            row.pop()
        else:
            row[0] = keys[rng.integers(rows)]  # a duplicate key, unless it hits its own row
    lines = [f"{rows} {dim}"]
    for row in fields:
        sep = SEPARATORS[rng.integers(len(SEPARATORS))]
        lines.append(sep.join(row) + (" " if rng.random() < 0.1 else ""))
        if rng.random() < 0.02:
            lines.append(" " if rng.random() < 0.5 else "")
    end = "\r\n" if rng.random() < 0.3 else "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(end.join(lines) + end)


def load_both(path):
    """(vocab, matrix bytes) or the error message, from `load_text_embeddings`
    and from the reference."""
    out = []
    for load in (emb.load_text_embeddings, helpers.reference_load_text_embeddings):
        try:
            vocab, matrix = load(path)
            out.append((vocab, matrix.dtype, matrix.shape, matrix.tobytes()))
        except ValueError as exc:
            out.append(str(exc))
    return out


class TestBlockParseMatchesReference:
    def test_random_files(self, tmp_path):
        rng = np.random.default_rng(21)
        path = str(tmp_path / "vecs.txt")
        outcomes = set()
        for case in range(120):
            random_text_vectors(rng, path, int(rng.integers(emb.BLOCK_ROWS + 1, 1300)),
                                int(rng.integers(1, 5)), faults=case % 4)
            got, want = load_both(path)
            assert got == want
            outcomes.add(want.split(": ", 1)[1].split(" ")[0] if isinstance(want, str)
                         else "loaded")
        assert outcomes >= {"loaded", "expected", "duplicate", "malformed", "non-finite"}

    @pytest.mark.parametrize("token", ["1_0", "١٢", "-0"])
    def test_values_only_float_reads(self, tmp_path, token):
        path = write_text(tmp_path, [f"{emb.BLOCK_ROWS + 2} 2"]
                          + [f"k{i} {i}.5 {token if i == emb.BLOCK_ROWS else 1}"
                             for i in range(emb.BLOCK_ROWS + 2)])
        got, want = load_both(path)
        assert got == want and not isinstance(got, str)

    def test_first_bad_line_before_a_later_duplicate_key(self, tmp_path):
        # both lines are in the first block; the duplicate is seen first, line by line
        path = write_text(tmp_path, ["5 2", "a 1 2", "b 1 x", "c 1 2", "a 1 2", "e 1 2"])
        got, want = load_both(path)
        assert got == want == f"{path}:3: malformed float"
        path = write_text(tmp_path, ["5 2", "a 1 2", "b 1.5", "c 1 2", "c 1 2", "e 1 2"])
        got, want = load_both(path)
        assert got == want == f"{path}:3: expected 2 values, got 1"

    def test_key_with_no_values_in_a_block(self, tmp_path):
        path = write_text(tmp_path, ["3 2", "a 1.5 2.5", "b", "c 1.5 2.5"])
        got, want = load_both(path)
        assert got == want == f"{path}:3: expected 2 values, got 0"


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        vocab = {"alpha": 0, "β": 1, "c c"[0:1]: 2}
        matrix = rng.standard_normal((3, 4)).astype(np.float32)
        path = str(tmp_path / "vecs.bin")
        emb.save_binary_embeddings(vocab, matrix, path)
        vocab2, matrix2 = emb.load_binary_embeddings(path)
        assert vocab2 == vocab
        assert np.array_equal(matrix2, matrix)

    def test_non_finite_value_names_row(self, tmp_path):
        matrix = np.ones((3, 2), dtype=np.float32)
        matrix[1, 0] = np.nan
        path = str(tmp_path / "vecs.bin")
        emb.save_binary_embeddings({"a": 0, "b": 1, "c": 2}, matrix, path)
        with pytest.raises(ValueError, match="non-finite value in row 1") as err:
            emb.load_binary_embeddings(path)
        assert path in str(err.value)

    def test_non_finite_check_spares_large_finite_values(self):
        big = 3.0e38
        matrix = np.array([[big, big], [-big, -big], [big, -big], [np.inf, 0.0],
                           [0.0, -np.inf], [np.nan, 1.0], [np.inf, -np.inf]], dtype=np.float32)
        assert list(emb._non_finite_rows(matrix)) == [3, 4, 5, 6]
        assert emb._non_finite_rows(np.zeros((2, 0), dtype=np.float32)).size == 0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            emb.load_binary_embeddings(str(p))


class TestWordVectors:
    @pytest.fixture
    def store(self, tmp_path):
        path = write_text(tmp_path, ["3 2", "apple 1.0 2.0", "Pear 3.0 4.0", "kiwi 5.0 6.0"])
        return emb.WordVectors.from_file(path)

    def test_in_vocabulary(self, store):
        assert np.allclose(store.lookup("kiwi"), [5, 6])

    def test_oov_goes_to_unknown_row(self, store):
        assert np.allclose(store.lookup("OOV-xyz"), store.matrix[store.unk_index])
        assert np.allclose(store.lookup("OOV-xyz"), 0.0)

    def test_lowercase_fallback(self, store):
        # "Apple" absent, "apple" present
        assert np.allclose(store.lookup("Apple"), [1, 2])
        # exact match wins over case fallback
        assert np.allclose(store.lookup("Pear"), [3, 4])

    def test_explicit_unk_row(self, tmp_path):
        path = write_text(tmp_path, ["2 2", "<unk> 9.0 9.0", "a 1.0 0.0"])
        store = emb.WordVectors.from_file(path)
        assert np.allclose(store.lookup("missing"), [9, 9])

    def test_lookup_is_pure(self, store):
        a = store.lookup("apple").copy()
        store.lookup("Pear")
        store.lookup("nothing")
        assert np.array_equal(store.lookup("apple"), a)


class TestEntityVectors:
    def test_missing_id_is_zeros_with_warning(self, tmp_path, caplog):
        path = write_text(tmp_path, ["1 2", "E1 1.0 2.0"])
        store = emb.EntityVectors.from_file(path)
        with caplog.at_level("WARNING"):
            v = store.vector("E404")
        assert np.allclose(v, 0.0)
        assert "E404" in caplog.text

    def test_frozen_by_default(self, tmp_path):
        path = write_text(tmp_path, ["1 2", "E1 1.0 2.0"])
        assert emb.EntityVectors.from_file(path).frozen


class TestCharTable:
    def test_build_and_lookup(self):
        rng = np.random.default_rng(2)
        table = emb.CharTable.build(["ab", "bc"], dim=4, rng=rng)
        assert table.rows.shape == (4, 4)  # a, b, c + unknown row
        assert table.index("a") != table.index("b")
        assert table.index("z") == table.unk_index

    def test_codepoint_round_trip(self):
        rng = np.random.default_rng(3)
        table = emb.CharTable.build(["héllo"], dim=3, rng=rng)
        rebuilt = emb.CharTable.from_codepoints(table.codepoints(), table.rows)
        assert rebuilt.chars == table.chars


class TestEntityTrainer:
    @pytest.fixture
    def word_store(self, tmp_path):
        rng = np.random.default_rng(4)
        n, d = 20, 16
        vocab = {f"w{i:02d}": i for i in range(n)}
        matrix = rng.standard_normal((n, d)).astype(np.float32)
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        path = str(tmp_path / "w.txt")
        emb.save_text_embeddings(vocab, matrix, path)
        return emb.WordVectors.from_file(path)

    def make_corpus(self, n_entities=5):
        corpus = {}
        for i in range(n_entities):
            dominant = f"w{(3 * i) % 20:02d}"
            others = {f"w{(3 * i + k) % 20:02d}": 2 for k in (1, 2)}
            corpus[f"E{i}"] = {dominant: 50, **others}
        return corpus

    def test_dominant_word_wins(self, word_store):
        corpus = self.make_corpus()
        ents = emb.train_entity_embeddings(corpus, word_store, steps=300, seed=7)
        for eid, counts in corpus.items():
            dominant = max(counts, key=counts.get)
            y = ents.vector(eid)
            scores = {w: float(word_store.lookup(w) @ y) for w in word_store.vocab}
            assert max(scores, key=scores.get) == dominant

    def test_zero_steps_is_random_init(self, word_store):
        corpus = {"Ea": {"w00": 3}}
        a = emb.train_entity_embeddings(corpus, word_store, steps=0, seed=1)
        b = emb.train_entity_embeddings(corpus, word_store, steps=0, seed=1)
        assert np.array_equal(a.vector("Ea"), b.vector("Ea"))
        rng = np.random.default_rng([1, 0])
        y = rng.standard_normal(word_store.dim)
        y /= np.linalg.norm(y)
        assert np.allclose(a.vector("Ea"), y.astype(np.float32))

    def test_same_profile_same_stream_identical(self, word_store):
        # each entity trains from (seed, sorted position); two entities with
        # the same profile at the same position get the same vector
        profile = {"w01": 4, "w05": 1}
        a = emb.train_entity_embeddings({"EA": profile}, word_store, steps=50, seed=3)
        b = emb.train_entity_embeddings({"EB": profile}, word_store, steps=50, seed=3)
        assert np.array_equal(a.vector("EA"), b.vector("EB"))

    def test_unit_norm(self, word_store):
        ents = emb.train_entity_embeddings(self.make_corpus(), word_store, steps=40, seed=5)
        norms = np.linalg.norm(ents.matrix, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_empty_counts_rejected(self, word_store):
        with pytest.raises(ValueError, match="empty co-occurrence"):
            emb.train_entity_embeddings({"E0": {}}, word_store, steps=1)

    def test_unknown_word_rejected(self, word_store):
        with pytest.raises(ValueError, match="not in word vectors"):
            emb.train_entity_embeddings({"E0": {"nope": 1}}, word_store, steps=1)
