"""Shared builders for the test suite, and a loopback HTTP scoring server."""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from tokencover.core import (
    CalibrationExample,
    GroundTruthExplanation,
    ImportanceScores,
    ScoredArrays,
    TokenizedQuestion,
)


def make_example(
    tokens,
    scores,
    truth,
    qid: str = "q0",
    answer: str | None = None,
) -> CalibrationExample:
    return CalibrationExample(
        question=TokenizedQuestion(id=qid, tokens=tuple(tokens)),
        scores=ImportanceScores(tuple(scores)),
        explanation=GroundTruthExplanation(frozenset(truth)),
        answer=answer,
    )


def random_example(rng: np.random.Generator, k_min: int = 2, k_max: int = 10, qid: str = "q0"):
    """One random valid example: random tokens, scores, non-empty truth."""
    k = int(rng.integers(k_min, k_max + 1))
    tokens = [f"t{int(v)}" for v in rng.integers(0, 10_000, size=k)]
    scores = [float(v) for v in rng.random(k)]
    n_truth = int(rng.integers(1, k + 1))
    truth = [int(j) for j in rng.choice(k, size=n_truth, replace=False)]
    return make_example(tokens, scores, truth, qid=qid)


def random_dataset(rng: np.random.Generator, n: int, k_min: int = 2,
                   k_max: int = 10) -> ScoredArrays:
    return ScoredArrays.from_examples(
        random_example(rng, k_min, k_max, qid=f"q{i}") for i in range(n)
    )


def _token_score(token: str) -> float:
    if token.isdigit():
        return int(token) / 100
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big") / 2.0**64


class _Handler(BaseHTTPRequestHandler):
    """Answers ``state["response"]``, or ``state["raw"]`` bytes, or without
    either the scores int(token) / 100 (a token that is not a number gets the
    unit uniform of its sha256); the first ``fail_first`` requests get
    ``fail_status`` (500) instead. With ``hang`` set, it waits that many
    seconds and closes the connection without an answer."""

    behavior: dict = {}

    def do_POST(self):
        state = self.behavior
        state["requests"] = state.get("requests", 0) + 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        state.setdefault("bodies", []).append(body)
        state.setdefault("auth", []).append(self.headers.get("Authorization"))
        if "hang" in state:
            time.sleep(state["hang"])
            return
        fail_first = state.get("fail_first", 0)
        if state["requests"] <= fail_first:
            self.send_response(state.get("fail_status", 500))
            self.end_headers()
            return
        if "raw" in state:
            payload = state["raw"]
        else:
            response = state.get("response") or {"scores": list(map(_token_score, body["tokens"]))}
            payload = json.dumps(response).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_scorer_server():
    handler = type("Handler", (_Handler,), {"behavior": {}})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/score", handler.behavior
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
