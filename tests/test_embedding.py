import os
import random
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastinsight import (
    EmbeddingIndex,
    HashEmbedder,
    build_index,
    hash_embed,
    vector_search,
)
from fastinsight.embedding import CACHE_MAGIC, content_digest, read_cache, write_cache
from fastinsight.errors import CacheInvalidError, DimensionMismatchError, EncoderError

from conftest import CountingEmbedder, make_graph


class TestHashEmbed:
    def test_deterministic(self):
        for text in ["hello world", "Graph retrieval, 42!", ""]:
            a, b = hash_embed(text, 64), hash_embed(text, 64)
            assert np.array_equal(a, b)

    def test_empty_string_is_zero_vector(self):
        assert not hash_embed("", 32).any()
        assert not hash_embed("  \t ..!", 32).any()

    def test_case_and_punctuation_insensitive(self):
        assert np.array_equal(hash_embed("Foo, BAR!", 64), hash_embed("foo bar", 64))

    def test_unit_norm(self):
        v = hash_embed("some sample text here", 128)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_minimum_dimension(self):
        with pytest.raises(ValueError):
            hash_embed("x", 4)

    def test_disjoint_token_pairs_nearly_orthogonal(self):
        # 100 fixed text pairs with no shared tokens; near-orthogonality of
        # signed hashing at d=256, checked by direct computation.
        for i in range(100):
            left = " ".join(f"alpha{i}w{j}" for j in range(12))
            right = " ".join(f"beta{i}w{j}" for j in range(12))
            dot = float(hash_embed(left, 256) @ hash_embed(right, 256))
            assert abs(dot) < 0.3


class TestBuildIndex:
    def test_one_vector_per_node(self, embedder):
        g = make_graph(["a", "b", "c"], [("a", "b")])
        index = build_index(g, embedder)
        assert len(index) == 3
        assert index.matrix.shape == (3, 256)

    def test_vectors_unit_normalized(self, embedder):
        g = make_graph(["a", "b"], [], contents={"a": "one two three", "b": "four"})
        index = build_index(g, embedder)
        for key in index.keys:
            assert np.linalg.norm(index.vector(key)) == pytest.approx(1.0, abs=1e-9)

    def test_cache_avoids_encoder_calls(self, tmp_path):
        g = make_graph(["a", "b", "c"], [])
        cache = str(tmp_path / "vectors.bin")
        emb = CountingEmbedder(64)
        build_index(g, emb, cache_path=cache)
        first_calls = emb.calls
        assert first_calls == 3
        build_index(g, emb, cache_path=cache)
        assert emb.calls == first_calls  # zero new encoder calls

    def test_cache_dimension_mismatch(self, tmp_path):
        g = make_graph(["a"], [])
        cache = str(tmp_path / "vectors.bin")
        build_index(g, HashEmbedder(64), cache_path=cache)
        with pytest.raises(CacheInvalidError):
            build_index(g, HashEmbedder(128), cache_path=cache)

    def test_cache_roundtrip(self, tmp_path):
        emb = HashEmbedder(32)
        records = {content_digest(text): emb.encode_node(text) for text in ("a", "b")}
        path = str(tmp_path / "v.bin")
        write_cache(path, records, 32)
        got, d = read_cache(path)
        assert d == 32 and set(got) == set(records)
        for digest, vector in got.items():
            assert np.array_equal(vector, records[digest])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(st.just(d), st.dictionaries(
        st.binary(min_size=16, max_size=16),
        st.lists(st.floats(width=64) | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308]),
                 min_size=d, max_size=d),
        max_size=5))))
    def test_cache_roundtrip_is_bit_exact(self, case):
        d, records = case
        records = {digest: np.array(values, dtype=np.float64) for digest, values in records.items()}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.bin")
            write_cache(path, records, d)
            got, got_d = read_cache(path)
        assert got_d == d and list(got) == list(records)
        for digest, vector in got.items():
            assert vector.dtype == np.float64 and vector.tobytes() == records[digest].tobytes()

    def test_equal_content_shares_one_record(self, tmp_path):
        g = make_graph(["a", "b", "c"], [], contents={"a": "same text", "b": "same text", "c": "other"})
        cache = str(tmp_path / "vectors.bin")
        fresh = build_index(g, HashEmbedder(32), cache_path=cache)
        records, _ = read_cache(cache)
        assert set(records) == {content_digest("same text"), content_digest("other")}
        emb = CountingEmbedder(32)
        cached = build_index(g, emb, cache_path=cache)
        assert emb.calls == 0
        assert np.array_equal(cached.matrix, fresh.matrix)

    def test_renamed_node_with_same_content_is_a_hit(self, tmp_path):
        cache = str(tmp_path / "vectors.bin")
        build_index(make_graph(["a", "b"], [], contents={"a": "alpha", "b": "beta"}),
                    HashEmbedder(32), cache_path=cache)
        renamed = make_graph(["a", "z"], [], contents={"a": "alpha", "z": "beta"})
        emb = CountingEmbedder(32)
        index = build_index(renamed, emb, cache_path=cache)
        assert emb.calls == 0
        assert np.array_equal(index.vector("z"), hash_embed("beta", 32))

    def test_failed_write_keeps_previous_cache(self, tmp_path):
        cache = tmp_path / "vectors.bin"
        build_index(make_graph(["a", "b"], []), HashEmbedder(32), cache_path=str(cache))
        before = cache.read_bytes()
        records = {content_digest("a"): np.zeros(32), content_digest("b"): "not a vector"}
        with pytest.raises(ValueError):
            write_cache(str(cache), records, 32)
        assert cache.read_bytes() == before
        assert os.listdir(tmp_path) == ["vectors.bin"]

    def test_cached_index_equals_fresh(self, tmp_path):
        keys = [f"n{i:03d}" for i in range(60)]
        contents = {k: f"node {k} about topic {i % 7} and word{i * 13 % 11}"
                    for i, k in enumerate(keys)}
        g = make_graph(keys, [], contents=contents)
        cache = str(tmp_path / "vectors.bin")
        fresh = build_index(g, HashEmbedder(64), cache_path=cache)
        emb = CountingEmbedder(64)
        cached = build_index(g, emb, cache_path=cache)
        assert emb.calls == 0
        assert cached.keys == fresh.keys
        assert np.array_equal(fresh.matrix, cached.matrix)

    def test_changed_content_is_reencoded(self, tmp_path):
        cache = str(tmp_path / "vectors.bin")
        old = make_graph(["a", "b", "c"], [], contents={"a": "alpha", "b": "beta", "c": "gamma"})
        build_index(old, HashEmbedder(64), cache_path=cache)
        new = make_graph(["a", "b", "c"], [], contents={"a": "alpha", "b": "delta", "c": "gamma"})
        emb = CountingEmbedder(64)
        index = build_index(new, emb, cache_path=cache)
        assert emb.calls == 1
        assert np.array_equal(index.vector("b"), hash_embed("delta", 64))
        # The rewritten cache now holds the new content's vector.
        emb = CountingEmbedder(64)
        again = build_index(new, emb, cache_path=cache)
        assert emb.calls == 0
        assert np.array_equal(again.matrix, index.matrix)

    def test_version_1_cache_rejected(self, tmp_path):
        path = tmp_path / "v1.bin"
        key = b"a"
        path.write_bytes(CACHE_MAGIC + struct.pack("<IIQ", 1, 8, 1) + struct.pack("<I", len(key))
                         + key + np.zeros(8, "<f4").tobytes())
        with pytest.raises(CacheInvalidError, match="version 1"):
            build_index(make_graph(["a"], []), HashEmbedder(8), cache_path=str(path))

    def test_version_2_cache_rejected(self, tmp_path):
        # Format 2 kept each node's key, then its content digest and vector.
        path = tmp_path / "v2.bin"
        path.write_bytes(CACHE_MAGIC + struct.pack("<IIQ", 2, 8, 1) + struct.pack("<I", 1) + b"a"
                         + content_digest("a") + np.zeros(8, "<f8").tobytes())
        with pytest.raises(CacheInvalidError, match="version 2"):
            build_index(make_graph(["a"], []), HashEmbedder(8), cache_path=str(path))

    def test_every_truncation_is_invalid(self, tmp_path):
        path = tmp_path / "v.bin"
        write_cache(str(path), {content_digest("x"): np.ones(8), content_digest("y"): np.zeros(8)}, 8)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(CacheInvalidError):
                read_cache(str(path))

    @pytest.mark.parametrize("at, field", [(8, struct.pack("<I", 2**32 - 1)), (12, struct.pack("<Q", 2**63))],
                             ids=["dimension", "count"])
    def test_size_past_the_end_is_invalid_and_not_allocated(self, tmp_path, at, field):
        path = tmp_path / "v.bin"
        write_cache(str(path), {content_digest("x"): np.ones(8)}, 8)
        data = path.read_bytes()
        path.write_bytes(data[:at] + field + data[at + len(field):])
        tracemalloc.start()
        try:
            with pytest.raises(CacheInvalidError, match="bytes, not .* records of dimension"):
                read_cache(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_encoder_failure_names_node(self):
        class Boom:
            dimension = 16
            batch_size = 4

            def encode_query(self, text):
                return np.zeros(16)

            def encode_node(self, text):
                return np.zeros(16)

            def encode_nodes(self, texts):
                raise RuntimeError("backend down")

        g = make_graph(["problematic"], [])
        with pytest.raises(EncoderError, match="problematic") as info:
            build_index(g, Boom())
        assert "backend down" in str(info.value)


class TestVectorSearch:
    def _index(self, vectors):
        d = len(next(iter(vectors.values())))
        return EmbeddingIndex({k: np.asarray(v, float) for k, v in vectors.items()}, d)

    def test_basic(self):
        index = self._index({"a": [1, 0, 0, 0, 0, 0, 0, 0], "b": [0, 1, 0, 0, 0, 0, 0, 0]})
        got = vector_search(np.array([1.0, 0, 0, 0, 0, 0, 0, 0]), index, 1)
        assert got.keys() == ("a",)

    def test_k_larger_than_index(self):
        index = self._index({f"n{i}": np.eye(8)[i % 8] for i in range(4)})
        got = vector_search(np.ones(8), index, 10)
        assert len(got) == 4

    def test_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(3)
        keys = [f"v{i:02d}" for i in range(50)]
        vecs = {}
        for k in keys:
            v = rng.standard_normal(16)
            vecs[k] = v / np.linalg.norm(v)
        index = self._index(vecs)
        q = rng.standard_normal(16)
        got = vector_search(q, index, 7)
        want = sorted(((k, float(q @ vecs[k])) for k in keys), key=lambda p: (-p[1], p[0]))[:7]
        assert list(got.items()) == [(k, pytest.approx(s)) for k, s in want]

    def test_scores_non_increasing_and_dominating(self):
        rng = np.random.default_rng(8)
        vecs = {f"v{i}": rng.standard_normal(8) for i in range(30)}
        index = self._index(vecs)
        q = rng.standard_normal(8)
        got = vector_search(q, index, 10)
        scores = [s for _, s in got]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        floor = min(scores)
        for k, v in vecs.items():
            if k not in got:
                assert float(q @ v) <= floor + 1e-12

    def test_tie_broken_by_key(self):
        index = self._index({"z": [1, 0, 0, 0, 0, 0, 0, 0], "a": [1, 0, 0, 0, 0, 0, 0, 0]})
        got = vector_search(np.array([1.0, 0, 0, 0, 0, 0, 0, 0]), index, 2)
        assert got.keys() == ("a", "z")

    def test_matches_full_sort_under_heavy_ties(self):
        # Integer-valued scores tie often; k runs past the index size too.
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            names = rng.choice(1000, size=n, replace=False)
            index = self._index({f"k{i}": rng.integers(-2, 3, 8) for i in names})
            q = rng.integers(-2, 3, 8).astype(float)
            k = int(rng.integers(1, n + 5))
            want = sorted(zip(index.keys, (index.matrix @ q).tolist()), key=lambda p: (-p[1], p[0]))
            assert vector_search(q, index, k).items() == tuple(want[:k])

    def test_dimension_mismatch(self):
        index = self._index({"a": np.ones(8)})
        with pytest.raises(DimensionMismatchError):
            vector_search(np.ones(9), index, 1)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad, normalize):
        vectors = {"a": np.ones(8), "b": np.ones(8), "c": np.ones(8)}
        vectors["b"][3] = bad
        with pytest.raises(ValueError, match="'b' has a non-finite entry"):
            EmbeddingIndex(vectors, 8, normalize=normalize)

    @pytest.mark.parametrize("k", [1, 3, 4, 6])  # below and at or past the index size
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad, k):
        index = self._index({f"n{i}": np.eye(8)[i] for i in range(4)})
        q = np.ones(8)
        q[2] = bad
        with pytest.raises(ValueError, match="query vector has a non-finite entry"):
            vector_search(q, index, k)

    def test_empty_index_rejected(self):
        index = EmbeddingIndex({}, 8)
        with pytest.raises(ValueError):
            vector_search(np.ones(8), index, 1)
