"""Loopback stand-in for a remote scoring service; stdlib only.

Run as a child process: ``python3 stub.py``. It binds 127.0.0.1 on a free port, prints the port on its first stdout line
and serves until its stdin closes, so it cannot outlive the benchmark.

POST any path with {"prompt", "tokens"}: after DELAY_S seconds, a stand-in
for model latency, it answers {"scores": stub_scores(tokens)}, except that
the first attempt of a request body whose sha256 falls in the lowest
REJECT_SHARE of the hash range is answered 503. The retry count is therefore an exact function of the inputs.
GET /log returns the [path, status] of every POST since the last GET /reset.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.005
REJECT_SHARE = 0.1


def stub_scores(tokens: list[str]) -> list[float]:
    """Deterministic per-token scores in (0, 1)."""
    out = []
    for j, tok in enumerate(tokens):
        h = hashlib.sha256(f"stub|{j}|{tok}".encode("utf-8")).digest()
        out.append((int.from_bytes(h[:8], "big") + 0.5) / 2.0**64)
    return out


class _Handler(BaseHTTPRequestHandler):
    server: "_Server"

    def _reply(self, status: int, payload: object) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        digest = hashlib.sha256(body).digest()
        srv = self.server
        with srv.lock:
            first = digest not in srv.seen
            srv.seen.add(digest)
            reject = first and int.from_bytes(digest[:8], "big") < REJECT_SHARE * 2**64
            srv.log.append([self.path, 503 if reject else 200])
        time.sleep(DELAY_S)
        if reject:
            self._reply(503, {"error": "busy"})
            return
        self._reply(200, {"scores": stub_scores(json.loads(body)["tokens"])})

    def do_GET(self) -> None:
        srv = self.server
        with srv.lock:
            if self.path == "/reset":
                srv.seen.clear()
                srv.log.clear()
            payload = list(srv.log)
        self._reply(200, payload)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002 - base signature
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.seen: set[bytes] = set()
        self.log: list[list] = []


def main() -> None:
    server = _Server()

    def stop_when_parent_goes() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_when_parent_goes, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
