"""The shared binary codec: truncation, corruption, length limits and the
exact bytes of the index, vector and checkpoint writers."""

import gc
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from e2el import candidates, cli, embeddings, training
from e2el.candidates import MAX_PRIOR, AliasIndex, CandidateEntry

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


def sample_index():
    return AliasIndex({
        "Paris": [CandidateEntry("Paris_city", 0.9), CandidateEntry("Paris_Hilton", 0.1)],
        "Zürich": [CandidateEntry("Zürich", 1.0)],
        "New York": [CandidateEntry("New_York_City", 0.75),
                     CandidateEntry("New_York_(state)", 0.25)],
    }, s=5, max_span_length=4)


def sample_vectors():
    vocab = {"alpha": 0, "β": 1, "<unk>": 2}
    return vocab, (np.arange(12, dtype=np.float32).reshape(3, 4) - 5.5) / 8


def sample_tensors():
    return {"a.w": (np.arange(6, dtype=np.float32).reshape(2, 3) - 2) / 4,
            "b": np.array([1.0, -2.5], dtype=np.float32),
            "scalar": np.asarray(2.5, dtype=np.float32),
            "empty": np.zeros((0, 3), dtype=np.float32)}


# name -> (writer of the sample file, loader, sha256 of the sample file as
# written by the struct-per-field writers this codec replaced)
FORMATS = {
    "index": (lambda p: candidates.save_index(sample_index(), p),
              candidates.load_index,
              "8ee5e470b38c698cfd586bdd56a3a4fd31e6e7a4e48e88dbba68dbcbe9159285"),
    "vectors": (lambda p: embeddings.save_binary_embeddings(*sample_vectors(), p),
                embeddings.load_binary_embeddings,
                "0044d5ee19d8e4455cc6c071f7c8c76ec13e5ec928979ad12d0e506ab06d2b80"),
    "checkpoint": (lambda p: training.save_checkpoint(sample_tensors(), p),
                   training.load_checkpoint,
                   "bbbfea4d814c3458fc1d52fd6018d89c49da205f2909bd447494e3d92b294e57"),
}


def written(tmp_path, name):
    path = str(tmp_path / f"{name}.bin")
    FORMATS[name][0](path)
    with open(path, "rb") as fh:
        return path, fh.read()


def checkpoint_boundaries():
    """Offset after each checkpoint entry -> the tensors up to it."""
    out = {4: {}}
    pos, seen = 4, {}
    for name, arr in sample_tensors().items():
        pos += 2 + len(name.encode("utf-8")) + 1 + 4 * arr.ndim + 4 * arr.size + 4
        seen = {**seen, name: arr}
        out[pos] = seen
    return out


def assert_rejects(loader, path):
    with pytest.raises(ValueError) as err:
        loader(path)
    assert path in str(err.value)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_writer_bytes_unchanged(tmp_path, name):
    _, blob = written(tmp_path, name)
    assert hashlib.sha256(blob).hexdigest() == FORMATS[name][2]


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_truncation_is_a_value_error(tmp_path, name):
    path, blob = written(tmp_path, name)
    loader = FORMATS[name][1]
    boundaries = checkpoint_boundaries() if name == "checkpoint" else {}
    if name == "checkpoint":
        assert max(boundaries) == len(blob)
    cut = str(tmp_path / f"cut-{name}.bin")
    for offset in range(len(blob)):
        with open(cut, "wb") as fh:
            fh.write(blob[:offset])
        if offset in boundaries:
            loaded = loader(cut)
            expect = boundaries[offset]
            assert list(loaded) == list(expect)
            assert all(np.array_equal(loaded[k], expect[k]) for k in expect)
        else:
            assert_rejects(loader, cut)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_trailing_byte_rejected(tmp_path, name):
    path, blob = written(tmp_path, name)
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    assert_rejects(FORMATS[name][1], path)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_byte_flips_load_or_raise_value_error(tmp_path, name):
    path, blob = written(tmp_path, name)
    loader = FORMATS[name][1]
    flipped = str(tmp_path / f"flip-{name}.bin")

    @SETTINGS
    @given(offset=st.integers(0, len(blob) - 1), mask=st.integers(1, 255))
    def check(offset, mask):
        corrupt = bytearray(blob)
        corrupt[offset] ^= mask
        with open(flipped, "wb") as fh:
            fh.write(corrupt)
        try:
            loader(flipped)
        except ValueError as exc:
            assert flipped in str(exc)

    check()


def test_declared_rows_beyond_file(tmp_path):
    path = str(tmp_path / "v.bin")
    vocab, matrix = sample_vectors()
    embeddings.save_binary_embeddings(vocab, matrix, path)
    with open(path, "r+b") as fh:
        fh.seek(4)
        fh.write((1000).to_bytes(4, "little"))
    with pytest.raises(ValueError, match="1000 rows"):
        embeddings.load_binary_embeddings(path)


def test_files_past_the_release_chunks_load_intact(tmp_path):
    """The loaders drop pages already read every 1024 rows or surfaces."""
    vocab = {f"k{i:04d}": i for i in range(2500)}
    matrix = np.random.default_rng(0).standard_normal((2500, 7)).astype(np.float32)
    path = str(tmp_path / "v.bin")
    embeddings.save_binary_embeddings(vocab, matrix, path)
    vocab2, matrix2 = embeddings.load_binary_embeddings(path)
    assert vocab2 == vocab and np.array_equal(matrix2, matrix)
    with open(path, "r+b") as fh:  # rows are 2 + 5 + 28 bytes after a 12-byte head
        fh.seek(12 + 2000 * 35 + 2)
        fh.write(b"k0001")
    with pytest.raises(ValueError, match="duplicate key 'k0001' at row 2000"):
        embeddings.load_binary_embeddings(path)
    index = AliasIndex({f"s{i}": [CandidateEntry(f"E{i}", 0.75), CandidateEntry("Z", 0.25)]
                        for i in range(2500)})
    path = str(tmp_path / "i.bin")
    candidates.save_index(index, path)
    assert candidates.load_index(path).entries == index.entries


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_string_over_65535_bytes_rejected_at_write(tmp_path, name):
    long = "x" * 65536
    path = str(tmp_path / f"long-{name}.bin")
    with pytest.raises(ValueError, match="65535") as err:
        if name == "index":
            candidates.save_index(AliasIndex({long: [CandidateEntry("E", 1.0)]}), path)
        elif name == "vectors":
            embeddings.save_binary_embeddings({long: 0}, np.ones((1, 2), np.float32), path)
        else:
            training.save_checkpoint({long: np.ones(2, np.float32)}, path)
    assert path in str(err.value)


@pytest.fixture
def cli_fixture(tmp_path):
    paths, _ = helpers.write_pipeline_fixture(tmp_path, n_docs=2)
    candidates.save_index(candidates.build_index([paths["counts"]]), paths["index"])
    return paths


def truncate(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:len(blob) // 2])


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_cli_exits_1_naming_truncated_file(cli_fixture, tmp_path, capfd, name):
    paths = cli_fixture
    if name == "index":
        bad = paths["index"]
        argv = ["train", "--config", paths["config"]]
    elif name == "vectors":
        bad = str(tmp_path / "words.bin")
        embeddings.save_binary_embeddings(*embeddings.load_text_embeddings(paths["words"]), bad)
        argv = ["train", "--config", paths["config"], "--set",
                f"paths.word_embeddings={bad}"]
    else:
        bad = paths["checkpoint"]
        training.save_checkpoint(sample_tensors(), bad)
        argv = ["annotate", "--config", paths["config"], "--in", paths["corpus"],
                "--out", str(tmp_path / "ann.jsonl")]
    truncate(bad)
    capfd.readouterr()
    assert cli.run_command(argv) == 1
    assert bad in capfd.readouterr().err


# ---------------------------------------------------------------------------
# the one-loop index decode against the record-by-record reference


SURFACE_CHARS = "abcé北 "
ENTITY_IDS = [f"E{i}" for i in range(40)] + ["Zürich", "北京", "Ωmega_(band)", ""]
PRIORS = [1e-300, MAX_PRIOR, 1.0, 0.5, 0.25]


def random_index(rng, n_surfaces):
    """Surfaces of 1-4 characters, ASCII or not, with 0-5 candidates each
    drawn from one shared pool of entity ids, so ids repeat across surfaces."""
    entries = {}
    while len(entries) < n_surfaces:
        surface = "".join(rng.choice(list(SURFACE_CHARS), size=rng.integers(1, 5)))
        ids = rng.choice(ENTITY_IDS, size=rng.integers(0, 6), replace=False)
        entries[surface] = [CandidateEntry(str(e), PRIORS[rng.integers(len(PRIORS))]
                                           if rng.random() < 0.3 else float(rng.uniform(1e-9, 1)))
                            for e in ids]
    return AliasIndex(entries, s=int(rng.integers(1, 40)), max_span_length=int(rng.integers(1, 9)))


def load_both(path):
    """(index or ValueError) from `load_index` and from the reference."""
    out = []
    for load in (candidates.load_index, helpers.reference_load_index):
        try:
            out.append(load(path))
        except ValueError as exc:
            out.append(exc)
    return out


def error_offset(exc):
    return int(re.findall(r" at byte (\d+) reading ", str(exc))[-1])


def assert_agrees(path):
    """Both load the same index, or raise the same error. The reference
    accepts a repeated surface or entity: where `load_index` rejects one,
    the reference loads or fails further into the file."""
    got, want = load_both(path)
    if isinstance(got, ValueError) and str(got).startswith(f"{path}: repeated "):
        assert isinstance(want, AliasIndex) or error_offset(want) > error_offset(got)
    elif isinstance(want, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(want)
    else:
        assert isinstance(got, AliasIndex), got
        assert (got.entries, got.s, got.max_span_length) == \
            (want.entries, want.s, want.max_span_length)


def test_index_decode_matches_reference(tmp_path):
    rng = np.random.default_rng(12)
    path = str(tmp_path / "index.bin")
    seen = set()
    for case in range(200):
        index = random_index(rng, 1100 if case % 40 == 0 else int(rng.integers(0, 30)))
        candidates.save_index(index, path)
        got = candidates.load_index(path)
        want = helpers.reference_load_index(path)
        assert got.entries == want.entries == index.entries
        assert (got.s, got.max_span_length) == (want.s, want.max_span_length) == \
            (index.s, index.max_span_length)
        ids = [e.entity_id for cands in got.entries.values() for e in cands]
        priors = {e.prior for cands in got.entries.values() for e in cands}
        cases = {"release": len(got.entries) > 1024,
                 "non-ASCII surface": not "".join(got.entries).isascii(),
                 "empty surface": not all(got.entries.values()),
                 "shared id": len(set(ids)) < len(ids),
                 "non-ASCII id": not "".join(ids).isascii(),
                 "prior 1e-300": 1e-300 in priors,
                 "prior MAX_PRIOR": MAX_PRIOR in priors}
        seen |= {name for name, hit in cases.items() if hit}
    assert seen == set(cases)


def test_damaged_index_fails_as_the_reference_does(tmp_path):
    rng = np.random.default_rng(13)
    path = str(tmp_path / "index.bin")
    candidates.save_index(random_index(rng, 6), path)
    with open(path, "rb") as fh:
        blob = fh.read()
    damaged = str(tmp_path / "damaged.bin")
    for offset in range(len(blob)):
        with open(damaged, "wb") as fh:
            fh.write(blob[:offset])
        assert_agrees(damaged)
    for case in range(1500):
        if case % 300 == 0:
            candidates.save_index(random_index(rng, int(rng.integers(2, 12))), path)
            with open(path, "rb") as fh:
                blob = fh.read()
        corrupt = bytearray(blob)
        for _ in range(int(rng.integers(1, 3))):
            corrupt[rng.integers(len(blob))] ^= int(rng.integers(1, 256))
        with open(damaged, "wb") as fh:
            fh.write(corrupt)
        assert_agrees(damaged)


@pytest.mark.parametrize("enabled", [True, False])
def test_index_decode_leaves_the_collector_as_found(tmp_path, enabled):
    path, blob = written(tmp_path, "index")
    cut = str(tmp_path / "cut.bin")
    with open(cut, "wb") as fh:
        fh.write(blob[:-3])
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        candidates.load_index(path)
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError, match="file ends"):
            candidates.load_index(cut)
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
