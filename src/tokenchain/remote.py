"""Next-token oracles served over HTTP.

Two clients: one for the native JSON protocol (POST {"context": [...],
"alphabet": [...]} answered by {"probs": [...]}) and one for
OpenAI-style completions responses carrying top log-probabilities.  Both
speak HTTP/1.1 over keep-alive sockets of their own.  A threaded
in-process mock server speaks the native protocol for integration tests
and the mock-serve command.
"""

from __future__ import annotations

import json
import math
import queue
import re
import socket
import threading
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
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}")


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

    def read(self, n):
        # in pieces: BufferedReader.read(n) allocates n bytes before reading
        data = bytearray()
        while len(data) < n and (piece := self.rfile.read(
                min(n - len(data), 1 << 16))):
            data += piece
        if len(data) != n:
            raise ValueError(f"reply body is {len(data)} bytes, framed as {n}")
        return data

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
                body += self.read(n)
                self.line()  # the CRLF that ends the chunk
            while self.line() not in _BLANK:  # trailers
                pass
        elif b"content-length" in headers:
            body = self.read(int(headers[b"content-length"]))
        else:  # framed by the end of the stream
            return code, self.rfile.read(), False
        return code, body, status[1] == b"1.1" \
            and b"close" not in headers.get(b"connection", b"")

    def close(self):
        self.rfile.close()
        self.sock.close()


class _HttpOracle(Oracle):
    """Shared transport: at most ``max_inflight`` keep-alive connections,
    the most recently idle one taken first, each query one write.  No
    redirect is followed and no proxy variable read; ``https`` is verified
    against the system CAs."""

    def __init__(self, config: RemoteOracleConfig):
        self.config = config
        self.n_symbols = len(config.alphabet)
        self._gate = threading.BoundedSemaphore(config.max_inflight)
        self._idle = queue.LifoQueue()
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

    def _symbols(self, context):
        out = []
        for s in context:
            if not 0 <= s < self.n_symbols:
                raise ValueError(f"state {s} outside the alphabet")
            out.append(self.config.alphabet[s])
        return out

    def _exchange(self, body, reuse=True):
        """POST ``body`` on an idle connection or a new one; the status and
        the body bytes.  A reused connection that the endpoint dropped while
        idle fails before any byte of a reply: the POST goes once more, on
        a new connection."""
        try:
            conn = self._idle.get_nowait() if reuse \
                else _Connection(*self._address)
        except queue.Empty:
            conn, reuse = _Connection(*self._address), False
        line = None
        try:
            conn.sock.sendall(b"%s%d\r\n\r\n%s"
                              % (self._head, len(body), body))
            if not (line := conn.line()):
                raise ConnectionAbortedError(
                    "endpoint closed the connection without a reply")
            status, data, keep = conn.reply(line)
        except BaseException as exc:
            conn.close()
            if reuse and not line and isinstance(exc, ConnectionError):
                return self._exchange(body, reuse=False)
            raise
        if keep:
            self._idle.put(conn)
        else:
            conn.close()
        return status, data

    def _post(self, payload) -> dict:
        try:
            with self._gate:
                status, body = self._exchange(json.dumps(payload).encode())
        # ValueError: a reply that the transport cannot frame
        except (OSError, ValueError) as exc:
            raise RemoteOracleError(f"transport failure: {exc}") from exc
        if not 200 <= status < 300:
            raise RemoteOracleError(
                f"endpoint returned status {status}: "
                f"{body.decode('utf-8', 'replace')[:200]}")
        try:
            data = json.loads(body)
        except ValueError as exc:
            raise RemoteOracleError("response body is not JSON") from exc
        if not isinstance(data, dict):
            raise RemoteOracleError(
                f"expected a JSON object, got {type(data).__name__}")
        return data

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


class RemoteOracle(_HttpOracle):
    """Client for the native oracle protocol."""

    name = "remote"

    def _distribution(self, context):
        payload = {"context": self._symbols(context),
                   "alphabet": list(self.config.alphabet)}
        data = self._post(payload)
        if "probs" not in data:
            raise RemoteOracleError('response lacks the "probs" field')
        probs = data["probs"]
        if not isinstance(probs, list) or len(probs) != self.n_symbols:
            raise RemoteOracleError(
                f"expected {self.n_symbols} probabilities, got "
                f"{probs if not isinstance(probs, list) else len(probs)}")
        return self._normalize(probs)


def probs_from_openai_response(response, alphabet) -> np.ndarray:
    """Restrict a completions response's first-token top logprobs to the
    alphabet.

    A symbol matches its exact token or the single-leading-space variant.
    Symbols absent from the (truncated) list share the residual mass
    1 - sum(exp(logprob)) equally; the restriction is then renormalized.
    """
    try:
        table = response["choices"][0]["logprobs"]["top_logprobs"][0]
    except (KeyError, IndexError, TypeError):
        raise RemoteOracleError(
            "response carries no top_logprobs table") from None
    if not isinstance(table, dict) or not table:
        raise RemoteOracleError("top_logprobs table is empty")
    try:
        listed = {tok: math.exp(float(lp)) for tok, lp in table.items()}
    except (TypeError, ValueError) as exc:
        raise RemoteOracleError(f"bad logprob value: {exc}") from exc
    residual = max(0.0, 1.0 - sum(listed.values()))
    out = np.zeros(len(alphabet))
    missing = []
    for i, sym in enumerate(alphabet):
        if sym in listed:
            out[i] = listed[sym]
        elif " " + sym in listed:
            out[i] = listed[" " + sym]
        else:
            missing.append(i)
    if missing:
        out[missing] = residual / len(missing)
    total = out.sum()
    if not np.isfinite(total) or total <= 0:
        raise RemoteOracleError(
            "no alphabet symbol received any probability mass")
    return out / total


class OpenAIRemoteOracle(_HttpOracle):
    """Client for OpenAI-compatible completions endpoints.

    The context is rendered as separator-joined symbols with a trailing
    separator so the next completion token is a bare state symbol.
    """

    name = "remote-openai"

    def __init__(self, config: RemoteOracleConfig, model=None,
                 top_logprobs=20, separator=","):
        if not separator:
            raise ValueError("separator must be non-empty")
        super().__init__(config)
        self.model = model
        self.top_logprobs = int(top_logprobs)
        self.separator = separator

    def _distribution(self, context):
        symbols = self._symbols(context)
        prompt = ""
        if symbols:
            prompt = self.separator.join(symbols) + self.separator
        payload = {"prompt": prompt, "max_tokens": 1,
                   "logprobs": self.top_logprobs, "temperature": 0.0}
        if self.model is not None:
            payload["model"] = self.model
        data = self._post(payload)
        probs = probs_from_openai_response(data, self.config.alphabet)
        return self._normalize(probs)


def _mock_server(address, seed):
    """A threaded HTTP server answering the native protocol.  http.server
    is imported here, so that only a mock endpoint loads it."""
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
        def log_message(self, fmt, *args):
            pass

        def _reply(self, status, payload):
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            try:
                length = int(self.headers.get("Content-Length", "0"))
                data = json.loads(self.rfile.read(length) or b"{}")
            except (ValueError, TypeError):
                self._reply(400, {"error": "bad JSON"})
                return
            context = data.get("context")
            alphabet = data.get("alphabet")
            if not isinstance(alphabet, list) or not alphabet \
                    or not isinstance(context, list):
                self._reply(400, {
                    "error": 'need "context" and "alphabet" lists'})
                return
            index = {sym: i for i, sym in enumerate(alphabet)}
            if len(index) != len(alphabet):
                self._reply(400, {
                    "error": "alphabet symbols must be distinct"})
                return
            unknown = [s for s in context if s not in index]
            if unknown:
                self._reply(400, {"error": f"unknown symbol {unknown[0]!r}"})
                return
            self._reply(200, {"probs": oracle_probs(
                len(alphabet), index[context[-1]] if context else None)})

    server = ThreadingHTTPServer(address, Handler)
    server.daemon_threads = True
    return server


class MockOracleServer:
    """In-process endpoint answering the native protocol.

    Each alphabet size is served by a fixed row-stochastic chain drawn
    from (seed, size) alone, so runs against the same settings are
    reproducible.  The empty context answers uniform; unknown symbols
    get a 400.
    """

    def __init__(self, seed=0, port=0):
        self._server = _mock_server(("127.0.0.1", port), seed)

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
