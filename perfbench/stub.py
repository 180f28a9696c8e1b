"""In-process HTTP stub for the embedding and reranker endpoints.

Implements the two JSON contracts from the README deterministically:

* ``POST /embed``  ``{"texts": [...]}`` -> ``{"vectors": [[...], ...]}``, each
  vector ``hash_embed(text, dim)``;
* ``POST /rerank`` ``{"query", "documents", "return_latents": true}`` ->
  ``{"latents": [[...], ...]}``, each latent the elementwise product of the
  hash embeddings of query and document, as ``HashReranker`` computes it.

The server is single-threaded, binds a fresh port on 127.0.0.1 and counts
requests, documents and bytes (request plus response bodies) per endpoint.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable, Dict

import numpy as np


class Stub:
    """Start with :meth:`start`, stop with :meth:`close`; ``counts`` is live."""

    def __init__(self, embed: Callable[[str, int], np.ndarray], dim: int):
        self.counts: Dict[str, Dict[str, int]] = {
            path: {"requests": 0, "documents": 0, "bytes": 0} for path in ("/embed", "/rerank")
        }
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                req = json.loads(body)
                if self.path == "/embed":
                    docs = req["texts"]
                    payload = {"vectors": [embed(t, dim).tolist() for t in docs]}
                elif self.path == "/rerank" and req.get("return_latents") is True:
                    docs = req["documents"]
                    q = embed(req["query"], dim)
                    payload = {"latents": [(q * embed(d, dim)).tolist() for d in docs]}
                else:
                    self.send_error(404)
                    return
                data = json.dumps(payload).encode()
                # Count before replying, so a client that has its reply
                # always sees its own request counted.
                c = stub.counts[self.path]
                c["requests"] += 1
                c["documents"] += len(docs)
                c["bytes"] += len(body) + len(data)
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._httpd = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._httpd.server_address[1]}"
        self._thread = threading.Thread(target=self._httpd.serve_forever, name="stub", daemon=True)

    def start(self) -> "Stub":
        self._thread.start()
        return self

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {path: dict(c) for path, c in self.counts.items()}

    def close(self) -> None:
        if self._thread.is_alive():
            self._httpd.shutdown()
            self._thread.join(timeout=10)
        self._httpd.server_close()
