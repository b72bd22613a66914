"""Stand-in remote endpoint for the benchmark's `remote` workload.

Speaks the native oracle protocol from the tokenchain README: POST
{"context": [...], "alphabet": [...]} is answered with {"probs": [...]},
the row of a seeded random chain (one per alphabet size) for the last
context symbol, or the uniform row for an empty context.  The chain is
drawn here with numpy alone, so nothing in the package under test serves
the requests.

HTTP/1.1 with keep-alive; at most as many connections as there are CPUs
are served at once, later ones wait in the listen backlog.
GET /stats returns the request count, the bytes received and the summed
service time.

    python3 perfbench/endpoint.py --seed 4

prints its URL on the first line of stdout and serves until terminated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

P_MIN = 0.05


def chain_rows(seed, d):
    """Row-stochastic d x d matrix with every entry at least P_MIN."""
    rng = np.random.default_rng([seed, d])
    return P_MIN + (1.0 - d * P_MIN) * rng.dirichlet(np.ones(d), size=d)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # idle keep-alive connections are dropped so they cannot hold a slot
    timeout = 5.0
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        pass

    def _reply(self, status, payload):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/stats":
            self._reply(404, {"error": "unknown path"})
            return
        self._reply(200, self.server.stats())

    def do_POST(self):
        started = time.perf_counter()
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        received = len(self.raw_requestline) + len(bytes(self.headers)) + length
        status, payload = self.server.answer(raw)
        self._reply(status, payload)
        self.server.count(received, time.perf_counter() - started)


class EndpointServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, seed, max_connections):
        super().__init__(address, _Handler)
        self.seed = seed
        self._slots = threading.BoundedSemaphore(max_connections)
        self._lock = threading.Lock()
        self._chains = {}
        self._requests = 0
        self._bytes = 0
        self._busy_s = 0.0

    def process_request(self, request, client_address):
        self._slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def answer(self, raw):
        try:
            data = json.loads(raw or b"{}")
        except ValueError:
            return 400, {"error": "bad JSON"}
        context = data.get("context") if isinstance(data, dict) else None
        alphabet = data.get("alphabet") if isinstance(data, dict) else None
        if not isinstance(alphabet, list) or not alphabet \
                or not isinstance(context, list):
            return 400, {"error": 'need "context" and "alphabet" lists'}
        index = {sym: i for i, sym in enumerate(alphabet)}
        if len(index) != len(alphabet):
            return 400, {"error": "alphabet symbols must be distinct"}
        if any(s not in index for s in context):
            return 400, {"error": "unknown symbol in context"}
        d = len(alphabet)
        if not context:
            return 200, {"probs": [1.0 / d] * d}
        with self._lock:
            rows = self._chains.get(d)
            if rows is None:
                rows = self._chains[d] = chain_rows(self.seed, d)
        return 200, {"probs": rows[index[context[-1]]].tolist()}

    def count(self, received, busy_s):
        with self._lock:
            self._requests += 1
            self._bytes += received
            self._busy_s += busy_s

    def stats(self):
        with self._lock:
            return {"requests": self._requests, "bytes_received": self._bytes,
                    "busy_s": self._busy_s}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    server = EndpointServer(("127.0.0.1", args.port), args.seed,
                            os.cpu_count() or 1)
    host, port = server.server_address[:2]
    print(f"http://{host}:{port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
