"""Shared builders for the test suite, a lookup-table scorer, the oracle's
per-token reference formula, and a loopback HTTP scoring server."""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from statistics import NormalDist

import numpy as np
import pytest

from tokencover.core import (
    CalibrationExample,
    GroundTruthExplanation,
    ImportanceScores,
    ScoredArrays,
    TokenizedQuestion,
)
from tokencover.scorer import ScorerError, _ScorerBase, _validate_score_values


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


class TableScorer(_ScorerBase):
    """Deterministic lookup table from token tuples to score vectors."""

    def __init__(self, table, identity: str = "table"):
        super().__init__()
        self.table = {tuple(toks): tuple(float(v) for v in vals) for toks, vals in table.items()}
        self.identity = identity

    def score_question(self, question: TokenizedQuestion) -> ImportanceScores:
        self.calls += 1
        try:
            values = self.table[question.tokens]
        except KeyError:
            raise ScorerError(
                f"table scorer {self.identity!r} has no entry for tokens {question.tokens!r}"
            ) from None
        _validate_score_values(values, len(question.tokens), self.identity)
        return ImportanceScores(values)


def reference_oracle_token(in_truth, sigma, seed, j, token):
    """The per-token oracle formula, one sha256 and one inv_cdf per token,
    that the batched kernel must reproduce bit for bit."""
    v = 1.0 if in_truth else 0.0
    if sigma > 0:
        h = hashlib.sha256(f"{seed}|{j}|{token}".encode("utf-8")).digest()
        v += sigma * NormalDist().inv_cdf((int.from_bytes(h[:8], "big") + 0.5) / 2.0**64)
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def reference_oracle_scores(truth, tokens, sigma, seed) -> ImportanceScores:
    """One question's oracle scores by ``reference_oracle_token``: the scores
    the oracle scorer must give, written out apart from the package."""
    return ImportanceScores(tuple(reference_oracle_token(j in truth, sigma, seed, j, tok)
                                  for j, tok in enumerate(tokens)))


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
