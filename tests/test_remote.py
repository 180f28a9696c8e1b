"""In-process HTTP servers exercising the remote embedder / reranker contracts."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from fastinsight import (
    AffineHead,
    HashReranker,
    RemoteEmbedder,
    RemoteReranker,
    build_index,
    hash_embed,
    rerank_pool,
)
from fastinsight.errors import DimensionMismatchError, EncoderError

from conftest import make_graph, ranked

DIM = 32


class _Handler(BaseHTTPRequestHandler):
    request_count = 0
    batch_sizes = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).request_count += 1
        if self.path == "/embed":
            texts = body["texts"]
            type(self).batch_sizes.append(len(texts))
            payload = {"vectors": [hash_embed(t, DIM).tolist() for t in texts]}
        elif self.path == "/embed-bad-dim":
            payload = {"vectors": [[0.0] * (DIM + 3) for _ in body["texts"]]}
        elif self.path == "/embed-short":
            payload = {"vectors": [hash_embed(t, DIM).tolist() for t in body["texts"][1:]]}
        elif self.path == "/embed-fail":
            if "boom" in body["texts"]:
                self.send_error(500)
                return
            payload = {"vectors": [hash_embed(t, DIM).tolist() for t in body["texts"]]}
        elif self.path == "/rerank":
            assert body["return_latents"] is True
            q = hash_embed(body["query"], DIM)
            payload = {"latents": [(q * hash_embed(d, DIM)).tolist()
                                   for d in body["documents"]]}
        elif self.path == "/rerank-bad-shape":
            payload = {"latents": [[0.0, 1.0]]}
        else:
            self.send_error(404)
            return
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()


class TestRemoteEmbedder:
    def test_matches_local_hash_embedding(self, server):
        emb = RemoteEmbedder(f"{server}/embed", DIM)
        got = emb.encode_query("hello remote world")
        assert np.allclose(got, hash_embed("hello remote world", DIM))
        assert np.allclose(emb.encode_node("some node"), hash_embed("some node", DIM))

    def test_build_index_over_remote(self, server):
        g = make_graph(["a", "b", "c"], [("a", "b")],
                       contents={"a": "alpha text", "b": "beta text", "c": "gamma text"})
        index = build_index(g, RemoteEmbedder(f"{server}/embed", DIM))
        v = hash_embed("beta text", DIM)
        assert np.allclose(index.vector("b"), v / np.linalg.norm(v))

    def test_dimension_mismatch_raises(self, server):
        emb = RemoteEmbedder(f"{server}/embed-bad-dim", DIM)
        with pytest.raises(DimensionMismatchError):
            emb.encode_query("x")

    def test_short_reply_rejected(self, server):
        emb = RemoteEmbedder(f"{server}/embed-short", DIM)
        with pytest.raises(DimensionMismatchError, match="2 vectors for 3 texts"):
            emb.encode_nodes(["a", "b", "c"])
        g = make_graph(["a", "b", "c"], [])
        with pytest.raises(EncoderError, match="'a'.*2 vectors for 3 texts"):
            build_index(g, emb)

    @pytest.mark.parametrize("size", [0, -1])
    def test_batch_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match="batch_size"):
            RemoteEmbedder("http://127.0.0.1:1/unused", DIM, batch_size=size)

    def test_encode_query_serialized_like_encode_node(self):
        emb = RemoteEmbedder("http://127.0.0.1:1/unused", DIM)
        active, overlaps = [0], []
        guard = threading.Lock()

        def fake_batch(texts):
            with guard:
                active[0] += 1
                overlaps.append(active[0] > 1)
            time.sleep(0.002)
            with guard:
                active[0] -= 1
            return [hash_embed(t, DIM) for t in texts]

        emb._encode_batch = fake_batch
        queries = [threading.Thread(target=lambda i=i: [emb.encode_query(f"q{i} {j}") for j in range(10)])
                   for i in range(4)]
        batches = [threading.Thread(target=lambda i=i: [emb.encode_nodes([f"n{i} {j}", "x"])
                                                        for j in range(10)])
                   for i in range(2)]
        threads = queries + batches
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(overlaps) == 60 and not any(overlaps)

    def test_http_error_propagates(self, server):
        import requests
        emb = RemoteEmbedder(f"{server}/missing", DIM)
        with pytest.raises(requests.HTTPError):
            emb.encode_query("x")


def _keys(n):
    return [f"n{i:03d}" for i in range(n)]


class TestRemoteBuildIndex:
    def test_one_request_per_batch(self, server):
        g = make_graph(_keys(70), [])
        _Handler.batch_sizes.clear()
        index = build_index(g, RemoteEmbedder(f"{server}/embed", DIM))
        assert _Handler.batch_sizes == [32, 32, 6]
        assert len(index) == 70

    def test_batched_index_equals_per_node(self, server):
        g = make_graph(_keys(40), [])
        emb = RemoteEmbedder(f"{server}/embed", DIM)
        batched = build_index(g, emb)
        per_node = build_index(g, RemoteEmbedder(f"{server}/embed", DIM, batch_size=1))
        assert np.array_equal(batched.matrix, per_node.matrix)

    def test_rebuild_sends_only_uncached_nodes(self, server, tmp_path):
        cache = str(tmp_path / "vectors.bin")
        emb = RemoteEmbedder(f"{server}/embed", DIM)
        build_index(make_graph(_keys(70), []), emb, cache_path=cache)
        contents = {"n010": "changed content"}
        g = make_graph(_keys(75), [], contents=contents)
        _Handler.batch_sizes.clear()
        index = build_index(g, emb, cache_path=cache)
        assert _Handler.batch_sizes == [6]  # n070..n074 and the changed n010
        v = hash_embed("changed content", DIM)
        assert np.array_equal(index.vector("n010"), v / np.linalg.norm(v))

    def test_failure_names_first_key_of_chunk(self, server):
        g = make_graph(_keys(70), [], contents={"n040": "boom"})
        with pytest.raises(EncoderError) as info:
            build_index(g, RemoteEmbedder(f"{server}/embed-fail", DIM))
        assert info.value.key == "n032"


class TestRemoteReranker:
    def _head(self, tmp_path):
        path = tmp_path / "head.json"
        rr = HashReranker(DIM)
        path.write_text(json.dumps({"weights": [rr.head_weights.tolist()],
                                    "bias": [0.0]}))
        return AffineHead.from_file(str(path))

    def test_matches_local_reranker(self, server, tmp_path):
        remote = RemoteReranker(f"{server}/rerank", DIM, self._head(tmp_path))
        local = HashReranker(DIM)
        q = "query about widgets"
        docs = ["widgets are great", "sprockets instead", "more widgets here"]
        got = remote.head_scores(remote.extract_latents(q, docs))
        want = local.head_scores(local.extract_latents(q, docs))
        assert np.allclose(got, want)

    def test_rerank_plain_over_remote(self, server, tmp_path):
        remote = RemoteReranker(f"{server}/rerank", DIM, self._head(tmp_path))
        ret = ranked("d1", "d2", "d3")
        docs = ["first widget doc", "unrelated sprocket", "widget widget widget"]
        g = make_graph(ret.keys(), [], contents=dict(zip(ret.keys(), docs)))
        got = rerank_pool("widget", ret, g, remote)
        local = rerank_pool("widget", ret, g, HashReranker(DIM))
        assert got.keys() == local.keys()

    def test_bad_shape_rejected(self, server, tmp_path):
        remote = RemoteReranker(f"{server}/rerank-bad-shape", DIM, self._head(tmp_path))
        with pytest.raises(ValueError):
            remote.extract_latents("q", ["a", "b", "c"])
