"""Next-token oracles served over HTTP.

One client for the native JSON protocol: POST {"context": [...],
"alphabet": [...]}, answered by {"probs": [...]}, over HTTP/1.1
keep-alive sockets of its own, a batch's requests pipelined.  A threaded
in-process mock server speaks the same protocol for integration tests
and the mock-serve command.
"""

from __future__ import annotations

import json
import queue
import re
import socket
import threading
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from urllib.parse import urlsplit, urlunsplit

import numpy as np

from .generators import random_chain
from .oracles import Oracle, OracleError

MOCK_P_MIN = 0.05
# http.client's caps on one reply line and on the header count
_MAX_LINE, _MAX_HEADERS = 65_536, 100
# a status line: its version (group 1) and its three-digit code (group 2)
_STATUS = re.compile(rb"HTTP/(1\.[01]) +(\d{3})\b")
_BLANK = (b"\r\n", b"\n", b"")
# the request bytes a batch writes ahead of the replies it has read
PIPELINE_BYTES = 1 << 15


class RemoteOracleError(OracleError):
    """Transport, protocol, or normalization failure at an endpoint."""


@dataclass
class RemoteOracleConfig:
    """Connection settings plus the state-symbol alphabet.

    The alphabet fixes both the rendering of contexts and the order of
    the returned probabilities.
    """

    endpoint: str
    alphabet: tuple
    timeout_ms: int = 10_000
    max_inflight: int = 4

    def __post_init__(self):
        # no credentials: the netloc goes out as the Host header
        try:
            url = urlsplit(self.endpoint)
            # printable ASCII: the URL goes into the request line as is
            ok = url.scheme in ("http", "https") and url.hostname \
                and url.username is None and url.port != 0 \
                and all(" " < c < "\x7f" for c in self.endpoint)
        except ValueError:  # a port that is not a number in 1-65535
            ok = False
        if not ok:
            raise ValueError(
                f"endpoint must be an http or https URL in printable ASCII "
                f"with a host and no user:password@, got {self.endpoint!r}")
        self.alphabet = tuple(str(s) for s in self.alphabet)
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be distinct")
        if self.timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {self.timeout_ms}")
        # the longest wait that a socket or a lock can take
        if self.timeout_ms > threading.TIMEOUT_MAX * 1000:
            raise ValueError(f"timeout_ms must be at most "
                             f"{threading.TIMEOUT_MAX * 1000:.0f}, "
                             f"got {self.timeout_ms}")
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}")


def _read_body(rfile, n, what):
    """The next ``n`` bytes of ``rfile``, the body of a ``what``, read in
    pieces: BufferedReader's read(n) allocates n bytes before reading any."""
    data = bytearray()
    while len(data) < n and (piece := rfile.read(min(n - len(data), 1 << 16))):
        data += piece
    if len(data) != n:
        raise ValueError(f"{what} body is {len(data)} bytes, framed as {n}")
    return data


class _Connection:
    """A socket to the endpoint and one buffered reader of it."""

    def __init__(self, host, port, timeout, tls):
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if tls:
            import ssl
            self.sock = ssl.create_default_context().wrap_socket(
                self.sock, server_hostname=host)
        self.rfile = self.sock.makefile("rb")

    def line(self):
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
        return line

    def reply(self, line):
        """Status, body and whether the connection stays open, of the reply
        whose status line is ``line``; 1xx replies are skipped."""
        while True:
            if not (status := _STATUS.match(line)):
                raise ValueError(f"bad status line {line[:80]!r}")
            headers = {}
            for _ in range(_MAX_HEADERS + 1):
                if (line := self.line()) in _BLANK:
                    break
                # every value read below compares case-free
                name, _, value = line.lower().partition(b":")
                headers.setdefault(name.strip(), value.strip())
            else:
                raise ValueError(f"more than {_MAX_HEADERS} reply headers")
            if not status[2].startswith(b"1"):
                break
            line = self.line()
        code = int(status[2])
        if headers.get(b"content-encoding", b"identity") != b"identity":
            raise ValueError("reply is not identity-encoded")
        if code in (204, 304):
            body = b""
        elif headers.get(b"transfer-encoding") == b"chunked":
            body = b""
            while n := int(self.line().split(b";")[0], 16):
                body += _read_body(self.rfile, n, "reply")
                self.line()  # the CRLF that ends the chunk
            while self.line() not in _BLANK:  # trailers
                pass
        elif b"content-length" in headers:
            body = _read_body(
                self.rfile, int(headers[b"content-length"]), "reply")
        else:  # framed by the end of the stream
            return code, self.rfile.read(), False
        return code, body, status[1] == b"1.1" \
            and b"close" not in headers.get(b"connection", b"")

    def close(self):
        self.rfile.close()
        self.sock.close()


class RemoteOracle(Oracle):
    """Client for the native oracle protocol: at most ``max_inflight``
    keep-alive connections, the most recently idle one taken first, each
    request one write, and a batch's requests pipelined on one connection
    (a query is a batch of one).  No redirect is followed and no proxy
    variable read; ``https`` is verified against the system CAs."""

    name = "remote"

    def __init__(self, config: RemoteOracleConfig):
        self.config = config
        self.n_symbols = len(config.alphabet)
        self._gate = threading.BoundedSemaphore(config.max_inflight)
        self._idle = queue.LifoQueue()
        self._symbols = [json.dumps(s).encode() for s in config.alphabet]
        url = urlsplit(config.endpoint)
        tls = url.scheme == "https"
        self._address = (url.hostname, url.port or (443 if tls else 80),
                         config.timeout_ms / 1000.0, tls)
        # the config admits no user:password@, so the netloc is the host
        # (an IPv6 one in brackets) and the port when given
        target = urlunsplit(("", "", url.path or "/", url.query, ""))
        self._head = (f"POST {target} HTTP/1.1\r\nHost: {url.netloc}\r\n"
                      "Content-Type: application/json\r\n"
                      "Accept-Encoding: identity\r\n"
                      "Content-Length: ").encode()

    def close(self):
        """Close the idle connections; a later query opens a new one."""
        while True:
            try:
                self._idle.get_nowait().close()
            except queue.Empty:
                return

    def _rows(self, requests):
        """Yield the answer to each request, in order.  On a connection
        that has answered in this batch, requests go back to back, at most
        PIPELINE_BYTES of them (one always) ahead of the replies read.
        What a closing connection leaves unanswered goes once more, each
        request first on a new connection, whose close before its reply
        is an error."""
        requests, todo, sent = iter(requests), deque(), deque()
        conn = None
        try:
            while True:
                if not todo and (request := next(requests, None)):
                    todo.append((request, False))
                if not (todo or sent):
                    break
                request, again = todo[0] if todo else (None, False)
                # the next request goes on a connection with none pending,
                # or into the window of one that has answered
                write = request and (not sent or not again and answered and
                                     ahead + len(request) <= PIPELINE_BYTES)
                line = keep = None
                try:
                    if write:
                        if not sent and (again or conn is None):
                            if conn:
                                conn.close()
                            conn, new, answered, ahead = None, True, 0, 0
                            if not again:
                                with suppress(queue.Empty):
                                    conn, new = self._idle.get_nowait(), False
                            conn = conn or _Connection(*self._address)
                        sent.append(todo.popleft()[0])
                        ahead += len(request)
                        conn.sock.sendall(request)
                        continue
                    if not (line := conn.line()):
                        raise ConnectionAbortedError(
                            "endpoint closed the connection without a reply")
                    status, body, keep = conn.reply(line)
                # ValueError: a reply that the transport cannot frame
                except (OSError, ValueError) as exc:
                    if line or not isinstance(exc, ConnectionError) \
                            or new and not answered:
                        raise RemoteOracleError(
                            f"transport failure: {exc}") from exc
                if keep is not None:
                    ahead -= len(sent.popleft())
                    answered += 1
                    yield self._answer(status, body)
                if not keep:  # the connection closed, or ends here
                    conn.close()
                    conn = None
                    todo.extendleft((r, True) for r in reversed(sent))
                    sent.clear()
        except BaseException:
            if conn:
                conn.close()
            raise
        if conn:
            self._idle.put(conn)

    def _request(self, context):
        """The POST of ``context``: json.dumps's bytes, symbol by symbol."""
        symbols = self._symbols
        for s in context:
            if not 0 <= s < self.n_symbols:
                raise ValueError(f"state {s} outside the alphabet")
        body = b'{"context": [%s], "alphabet": [%s]}' % (
            b", ".join([symbols[s] for s in context]), b", ".join(symbols))
        return b"%s%d\r\n\r\n%s" % (self._head, len(body), body)

    def query_many(self, contexts) -> np.ndarray:
        """The answers to ``contexts`` (or to a VocabSpec's states, in
        index order), each POST made when its turn comes; the batch holds
        one of the ``max_inflight`` slots."""
        with self._gate:
            return np.fromiter(self._rows(map(self._request, contexts)),
                               np.dtype((float, self.n_symbols)))

    def _distribution(self, context):
        return self.query_many((context,))[0]

    @staticmethod
    def _normalize(vec) -> np.ndarray:
        arr = np.asarray(vec, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)) or arr.min() < 0:
            raise RemoteOracleError(
                "endpoint probabilities must be finite and nonnegative")
        with np.errstate(over="ignore"):
            total = arr.sum()
        if not np.isfinite(total):  # rescale only what would overflow
            arr = arr / arr.max()
            total = arr.sum()
        if total <= 0:
            raise RemoteOracleError("endpoint probabilities have no mass")
        return arr / total

    def _answer(self, status, body):
        """The normalized probabilities of a reply's status and body."""
        if not 200 <= status < 300:
            raise RemoteOracleError(
                f"endpoint returned status {status}: "
                f"{body.decode('utf-8', 'replace')[:200]}")
        try:
            data = json.loads(body)
        except ValueError as exc:
            raise RemoteOracleError("response body is not JSON") from exc
        probs = data.get("probs") if isinstance(data, dict) else None
        if not isinstance(probs, list) or len(probs) != self.n_symbols:
            raise RemoteOracleError(
                f'expected {{"probs": [...]}} with {self.n_symbols} '
                f"probabilities, got {body.decode('utf-8', 'replace')[:200]}")
        return self._normalize(probs)


class MockOracleServer:
    """In-process endpoint answering the native protocol.

    Each alphabet size is served by a fixed row-stochastic chain drawn
    from (seed, size) alone, so runs against the same settings are
    reproducible.  The empty context answers uniform; unknown symbols
    get a 400.
    """

    def __init__(self, seed=0, port=0):
        # imported here, so that only a mock endpoint loads http.server
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        chains, lock = {}, threading.Lock()

        def oracle_probs(d, last_index):
            if last_index is None:
                return [1.0 / d] * d
            with lock:
                if d not in chains:
                    chains[d] = random_chain(d, p_min=MOCK_P_MIN,
                                             seed=seed).dense()
            return [float(x) for x in chains[d][last_index]]

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # a connection idle or stalled mid-request this long is ended
            timeout = 5.0
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):
                pass

            def handle(self):
                with suppress(OSError):  # the client left before its reply
                    super().handle()

            def do_POST(self):
                status, payload = self._answer()
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                if self.close_connection:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)

            def _answer(self):
                length = self.headers.get("Content-Length", "0")
                if not (length.isascii() and length.isdigit()):
                    self.close_connection = True  # no end to read up to
                    return 400, {"error": "bad Content-Length"}
                try:  # int() refuses more than 4,300 digits
                    data = json.loads(_read_body(
                        self.rfile, int(length), "request") or b"{}")
                except ValueError:
                    return 400, {"error": "bad JSON"}
                data = data if isinstance(data, dict) else {}
                context, alphabet = data.get("context"), data.get("alphabet")
                if not isinstance(alphabet, list) or not alphabet \
                        or not isinstance(context, list):
                    return 400, {
                        "error": 'need "context" and "alphabet" lists'}
                index = {sym: i for i, sym in enumerate(alphabet)}
                if len(index) != len(alphabet):
                    return 400, {"error": "alphabet symbols must be distinct"}
                unknown = [s for s in context if s not in index]
                if unknown:
                    return 400, {"error": f"unknown symbol {unknown[0]!r}"}
                return 200, {"probs": oracle_probs(
                    len(alphabet), index[context[-1]] if context else None)}

        self._server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self._server.daemon_threads = True

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self):
        """Run in the foreground until interrupted."""
        try:
            self._server.serve_forever()
        finally:
            self._server.server_close()

    def __enter__(self):
        """Serve from a background thread until the block ends."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
        return False
