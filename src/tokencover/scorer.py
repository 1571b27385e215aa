"""Importance scorers and the content-addressed score cache.

A scorer maps a tokenized question to per-token importance scores in [0, 1].
Built-in kinds: a noisy oracle around the ground truth, a seeded uniform
scorer, a constant scorer, a lookup table, and a remote HTTP scorer with a
persistent disk cache. Stochastic kinds derive all randomness from their seed
and the content being scored, never from global state, so repeated calls are
reproducible. All oracle noise comes from one batched rule, ``_oracle_scores``.

``score_many`` scores a chunk of at most ``_SCORE_CHUNK`` questions into one
flat array, one call each. Each scorer states its rule once, in one of the
two methods, and the base class derives the other. The remote scorer's
``score_many`` is the package's one use of threads: its cache misses.
"""

from __future__ import annotations

import json
import numbers
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from statistics import NormalDist
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .core import ImportanceScores, ScoredArrays, TokenizedQuestion, _write_atomic

ScoreCacheKey = str

SCORER_KINDS = ("oracle_noise", "uniform_random", "constant", "remote")

_NORMAL = NormalDist()
_BELOW_ONE = float(np.nextafter(1.0, 0.0))

# Questions (or ball members) per ``score_many`` call, which bounds its memory
_SCORE_CHUNK = 1_024


class ScorerError(ValueError):
    """Raised for invalid scorer configuration or unusable scorer output."""


def cache_key(prompt: str, tokens: Sequence[str], scorer_identity: str) -> ScoreCacheKey:
    """Collision-resistant digest of (prompt, tokens, scorer identity).

    Any change to the prompt, any token, the token order, or the scorer
    identity yields a different key.
    """
    payload = json.dumps(
        [prompt, list(tokens), scorer_identity], ensure_ascii=False, separators=(",", ":")
    )
    return sha256(payload.encode("utf-8")).hexdigest()


def _unit_uniforms(digests: bytes) -> np.ndarray:
    """(h + 0.5) / 2**64 for each 32-byte sha256 digest, h its first 8 bytes
    read big-endian; in (0, 1), but 1.0 for h >= 2**64 - 1024."""
    return (np.frombuffer(digests, dtype=">u8")[::4] + 0.5) / 2.0**64


def _normal_deviates(digests: bytes) -> list[float]:
    """One standard normal per digest: ``inv_cdf`` of its uniform draw, capped
    at the largest double below 1 so that the draw is never 1.0."""
    u = _unit_uniforms(digests)
    np.minimum(u, _BELOW_ONE, out=u)
    return list(map(_NORMAL.inv_cdf, u.tolist()))


def _oracle_scores(in_truth: Iterable[bool], sigma: float, seed: int,
                   positions: Iterable[int], tokens: Iterable[str]) -> list[float]:
    """The noisy-oracle score of each (position j, token) pair, the package's
    one oracle-noise rule: 1 if j is a truth position, else 0, plus ``sigma``
    times a standard normal drawn from the sha256 of "seed|j|token", clamped
    into [0, 1]. The pairs are scored in one batch."""
    if not sigma > 0:
        return [1.0 if m else 0.0 for m in in_truth]
    digests = b"".join([sha256(f"{seed}|{j}|{tok}".encode()).digest()
                        for j, tok in zip(positions, tokens)])
    scores = []
    for m, z in zip(in_truth, _normal_deviates(digests)):
        v = (1.0 if m else 0.0) + sigma * z
        scores.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
    return scores


@dataclass(frozen=True)
class ScorerSpec:
    """Declarative scorer configuration.

    ``kind`` is one of SCORER_KINDS; ``parameters`` holds kind-specific
    settings (``sigma`` for oracle_noise, ``value`` for constant,
    ``endpoint``/``timeout``/``retries``/``backoff`` for remote). ``seed``
    drives every stochastic kind.
    """

    kind: str
    parameters: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0


class _ScorerBase:
    """Shared counters. A scorer overrides ``score_question`` or ``score_many``,
    and the base version of the other derives from it."""

    identity: str = "?"
    context_free: bool = False

    def __init__(self) -> None:
        self.calls = 0
        self.cache_hits = 0

    def score_question(self, question: TokenizedQuestion) -> ImportanceScores:
        """The scores of one question: ``score_many`` of a chunk of one."""
        return ImportanceScores(tuple(self.score_many([question]).tolist()))

    def score_many(self, questions: Sequence[TokenizedQuestion]) -> np.ndarray:
        """The scores of ``questions`` as one flat float64 array, in question
        and then position order, from one ``score_question`` call each."""
        flat: list[float] = []
        for question in questions:
            values = self.score_question(question).values
            if len(values) != len(question.tokens):
                raise ScorerError(f"scorer {self.identity!r}: scores length {len(values)} "
                                  f"does not match {len(question.tokens)} tokens")
            flat.extend(values)
        return np.array(flat, dtype=np.float64)

    def score_tokens(self, question: TokenizedQuestion, positions: Sequence[int],
                     tokens: Sequence[str]) -> list[float]:
        """Score (position, token) pairs, each independent of the other tokens,
        as one call per pair. Only defined for context-free scorers, where the
        score of a token does not depend on the rest of the question."""
        raise ScorerError(
            f"coordinatewise mode requires a context-free scorer; {self.identity!r} is not")


def oracle_noise_score(
    truth_indices: Iterable[int],
    tokens: Sequence[str],
    sigma: float,
    seed: int,
) -> ImportanceScores:
    """Noisy-oracle scores: 1 on ground-truth positions, 0 elsewhere, plus
    Gaussian noise of scale ``sigma``, clamped back into [0, 1].

    The noise at position j is a deterministic function of
    (seed, j, token at j), so re-scoring the same content reproduces the same
    values and the score of a token never depends on the other positions.
    """
    if not 0.0 <= sigma < float("inf"):  # NaN fails both
        raise ScorerError(f"sigma must be finite and >= 0, got {sigma}")
    k = len(tokens)
    in_truth = _truth_mask(frozenset(map(int, truth_indices)), k)
    return ImportanceScores(tuple(_oracle_scores(in_truth, sigma, seed, range(k), tokens)))


def _truth_mask(truth: frozenset[int], k: int) -> list[bool]:
    """Whether each position j < k is in ``truth``, which must lie in [0, k)."""
    for j in truth:
        if not 0 <= j < k:
            raise ScorerError(f"ground-truth index {j} outside [0, {k})")
    return [j in truth for j in range(k)]


class OracleNoiseScorer(_ScorerBase):
    """Scores ground-truth positions near 1 and the rest near 0.

    Needs the ground truth for every question it will see, keyed by question
    id. Context-free: the score at position j depends only on (seed, j,
    token string) and whether j is a truth position.
    """

    context_free = True

    def __init__(self, sigma: float, seed: int, truth_by_id: Mapping[str, Iterable[int]]):
        super().__init__()
        if not 0.0 <= sigma < float("inf"):  # NaN fails both
            raise ScorerError(f"sigma must be finite and >= 0, got {sigma}")
        self.sigma = float(sigma)
        self.seed = int(seed)
        self.truth_by_id = {qid: frozenset(int(i) for i in idx) for qid, idx in truth_by_id.items()}
        self.identity = f"oracle_noise(sigma={self.sigma!r},seed={self.seed})"

    def _truth(self, question_id: str) -> frozenset[int]:
        try:
            return self.truth_by_id[question_id]
        except KeyError:
            raise ScorerError(
                f"oracle scorer has no ground truth for question id {question_id!r}"
            ) from None

    def score_many(self, questions: Sequence[TokenizedQuestion]) -> np.ndarray:
        # every question's truth is checked before any is hashed
        masks = [_truth_mask(self._truth(q.id), len(q.tokens)) for q in questions]
        self.calls += len(questions)
        return np.array(_oracle_scores(
            [m for mask in masks for m in mask], self.sigma, self.seed,
            [j for q in questions for j in range(len(q.tokens))],
            [tok for q in questions for tok in q.tokens]), dtype=np.float64)

    def score_tokens(self, question: TokenizedQuestion, positions: Sequence[int],
                     tokens: Sequence[str]) -> list[float]:
        self.calls += len(positions)
        truth = self._truth(question.id)
        return _oracle_scores(map(truth.__contains__, positions), self.sigma, self.seed,
                              positions, tokens)


class ConstantScorer(_ScorerBase):
    """Every token gets the same score."""

    context_free = True

    def __init__(self, value: float):
        super().__init__()
        if not 0.0 <= value <= 1.0:
            raise ScorerError(f"constant value must be in [0, 1], got {value}")
        self.value = float(value)
        self.identity = f"constant(value={self.value!r})"

    def score_question(self, question: TokenizedQuestion) -> ImportanceScores:
        self.calls += 1
        return ImportanceScores((self.value,) * len(question.tokens))

    def score_tokens(self, question: TokenizedQuestion, positions: Sequence[int],
                     tokens: Sequence[str]) -> list[float]:
        self.calls += len(positions)
        return [self.value] * len(positions)


class UniformRandomScorer(_ScorerBase):
    """Independent uniform scores, keyed on the whole question.

    Context-dependent by construction: editing any token redraws every
    position's score, which makes this a useful stand-in for scorers whose
    output shifts with context.
    """

    def __init__(self, seed: int):
        super().__init__()
        self.seed = int(seed)
        self.identity = f"uniform_random(seed={self.seed})"

    def _digests(self, key: ScoreCacheKey, k: int) -> bytes:
        """The sha256 of "seed|key|j" for each position j < k, whose unit
        uniform is the score at j. The shared prefix "seed|key|" is hashed
        once and the hasher copied per position."""
        head = sha256(f"{self.seed}|{key}|".encode())
        digests = []
        for j in range(k):
            h = head.copy()
            h.update(str(j).encode())
            digests.append(h.digest())
        return b"".join(digests)

    def score_many(self, questions: Sequence[TokenizedQuestion]) -> np.ndarray:
        self.calls += len(questions)
        return _unit_uniforms(b"".join([
            self._digests(cache_key(question.prompt, question.tokens, self.identity),
                          len(question.tokens))
            for question in questions]))


class TableScorer(_ScorerBase):
    """Deterministic lookup table from token tuples to score vectors."""

    def __init__(self, table: Mapping[Sequence[str], Sequence[float]], identity: str = "table"):
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


class ScoreCache:
    """Persistent content-addressed score cache: one JSON file per key.

    Writes go through a temp file and an atomic rename, so concurrent readers
    never observe partial content. I/O failures degrade to uncached operation
    with a warning instead of failing the scoring call.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            warnings.warn(f"score cache at {self.root} unavailable ({e}); running uncached")

    def _path(self, key: ScoreCacheKey) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: ScoreCacheKey) -> tuple[float, ...] | None:
        try:
            raw = self._path(key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as e:
            warnings.warn(f"score cache read failed for {key[:12]}… ({e}); treating as miss")
            return None
        try:
            rec = json.loads(raw)
            return tuple(float(v) for v in rec["scores"])
        except (ValueError, KeyError, TypeError) as e:
            warnings.warn(f"score cache entry {key[:12]}… is corrupt ({e}); treating as miss")
            return None

    def put(self, key: ScoreCacheKey, scores: Sequence[float]) -> None:
        try:
            _write_atomic(self._path(key), json.dumps({"scores": list(scores)}))
        except OSError as e:
            warnings.warn(f"score cache write failed for {key[:12]}… ({e}); continuing uncached")


def _validate_score_values(values: Sequence[float], k: int, identity: str) -> None:
    if len(values) != k:
        raise ScorerError(
            f"scorer {identity!r} returned {len(values)} scores for {k} tokens"
        )
    for j, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v != v:
            raise ScorerError(f"scorer {identity!r} returned non-numeric score at position {j}")
        if not 0.0 <= v <= 1.0:
            raise ScorerError(
                f"scorer {identity!r} returned score {v!r} outside [0, 1] at position {j}"
            )


class RemoteScorer(_ScorerBase):
    """HTTP scorer: POST {"prompt", "tokens"} and expect {"scores": [...]}.

    Reads the API key from the SCORER_API_KEY environment variable when set.
    Requests go through the standard library's HTTP client, which honours
    ``http_proxy``, ``https_proxy`` and ``no_proxy`` (the proxies are read
    when the scorer is built) and verifies TLS against the system CA store.
    Connection errors, timeouts, 5xx and 429 retry with exponential backoff;
    any other HTTP error status, and a 200 whose body is not JSON or has no
    ``scores``, fail at once. Responses are validated for length and range,
    and validated scores are memoized in memory and in an optional on-disk
    cache. ``score_many`` fetches misses on ``workers`` threads, which bound
    the requests in flight; at ``workers`` <= 1, in the calling thread.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 10.0,
        retries: int = 3,
        cache_dir: str | Path | None = None,
        backoff: float = 0.25,
        workers: int = 1,
    ):
        # imported here: urllib.request costs about 40 ms at start-up, which
        # commands without a remote scorer need not pay
        from urllib.parse import urlsplit
        from urllib.request import build_opener

        super().__init__()
        if not endpoint:
            raise ScorerError("remote scorer requires a non-empty endpoint")
        if urlsplit(endpoint).scheme not in ("http", "https"):
            raise ScorerError(f"remote scorer endpoint {endpoint!r} is not an http(s) URL")
        if retries < 0:
            raise ScorerError(f"retries must be >= 0, got {retries}")
        self.endpoint = endpoint
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.workers = int(workers)
        self.identity = f"remote({endpoint})"
        self.disk_cache = ScoreCache(cache_dir) if cache_dir is not None else None
        self._memo: dict[ScoreCacheKey, tuple[float, ...]] = {}
        self._lock = threading.Lock()
        self._opener = build_opener()

    def _request(self, question: TokenizedQuestion) -> list[Any]:
        from http.client import HTTPException
        from urllib.error import HTTPError
        from urllib.request import Request

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get("SCORER_API_KEY")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        # A server may key on the exact bytes (bench/stub.py picks the requests
        # it answers 503 by their sha256), so their format is fixed.
        body = json.dumps(
            {"prompt": question.prompt, "tokens": list(question.tokens)}, allow_nan=False
        ).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt > 0:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            request = Request(self.endpoint, data=body, headers=headers, method="POST")
            try:
                with self._opener.open(request, timeout=self.timeout) as resp:
                    raw = resp.read()
            except HTTPError as e:
                e.close()
                if e.code < 500 and e.code != 429:
                    raise ScorerError(
                        f"remote scorer {self.endpoint!r} refused the request: "
                        f"HTTP {e.code} {e.reason}"
                    ) from None
                last_error = e
                continue
            except (OSError, HTTPException) as e:  # connection errors and timeouts
                last_error = e
                continue
            try:
                payload = json.loads(raw)
            except ValueError:
                raise ScorerError(
                    f"remote scorer {self.endpoint!r} returned a body that is not JSON"
                ) from None
            if not isinstance(payload, dict) or "scores" not in payload:
                raise ScorerError(
                    f"remote scorer {self.endpoint!r} returned a payload without 'scores'"
                )
            return payload["scores"]
        raise ScorerError(
            f"remote scorer {self.endpoint!r} failed after {self.retries + 1} attempts: {last_error}"
        )

    def _lookup(self, question: TokenizedQuestion) -> tuple[float, ...] | None:
        """The cached scores of ``question``, from the memo and then the disk
        cache, or None on a miss. A hit counts in ``cache_hits``."""
        key = cache_key(question.prompt, question.tokens, self.identity)
        with self._lock:
            if key in self._memo:
                self.cache_hits += 1
                return self._memo[key]
        if self.disk_cache is not None:
            cached = self.disk_cache.get(key)
            if cached is not None:
                _validate_score_values(cached, len(question.tokens), self.identity)
                with self._lock:
                    self._memo[key] = cached
                    self.cache_hits += 1
                return cached
        return None

    def _fetch(self, question: TokenizedQuestion) -> tuple[float, ...]:
        """Score ``question`` over the network, validate the scores and cache
        them. Counts in ``calls``."""
        raw = self._request(question)
        if not isinstance(raw, list):
            raise ScorerError(f"scorer {self.identity!r} returned non-list scores")
        _validate_score_values(raw, len(question.tokens), self.identity)
        values = tuple(float(v) for v in raw)
        key = cache_key(question.prompt, question.tokens, self.identity)
        with self._lock:
            self.calls += 1
            self._memo[key] = values
        if self.disk_cache is not None:
            self.disk_cache.put(key, values)
        return values

    def score_many(self, questions: Sequence[TokenizedQuestion]) -> np.ndarray:
        """Hits come from the memo and then the disk cache, in the calling
        thread; each distinct miss is fetched once, on a pool of ``workers``
        threads when ``workers`` is above 1. A repeat of a miss is then a memo
        hit, as in a serial pass, so ``calls`` and ``cache_hits`` match one."""
        scored = [self._lookup(q) for q in questions]
        misses: dict[tuple[str, tuple[str, ...]], int] = {}
        for i, (q, sc) in enumerate(zip(questions, scored)):
            if sc is None:
                misses.setdefault((q.prompt, q.tokens), i)
        todo = [questions[i] for i in misses.values()]
        if self.workers > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                fetched = list(pool.map(self._fetch, todo))
        else:
            fetched = [self._fetch(q) for q in todo]
        for i, sc in zip(misses.values(), fetched):
            scored[i] = sc
        scored = [self._lookup(q) if sc is None else sc for q, sc in zip(questions, scored)]
        return np.array([v for sc in scored for v in sc], dtype=np.float64)


def truth_map(arrays: ScoredArrays) -> dict[str, frozenset[int]]:
    """Ground-truth lookup (question id -> explanation indices) for the oracle."""
    return dict(zip(arrays.ids, map(frozenset, arrays.positions(arrays.truth))))


_ALLOWED_PARAMS = {
    "oracle_noise": {"sigma", "truth_by_id"},
    "uniform_random": set(),
    "constant": {"value"},
    "remote": {"endpoint", "timeout", "retries", "backoff"},
}


_NUMBER = (numbers.Real, "a number")
_INTEGER = (numbers.Integral, "an integer")
_PARAM_TYPES = {"sigma": _NUMBER, "value": _NUMBER, "timeout": _NUMBER, "backoff": _NUMBER,
                "retries": _INTEGER, "endpoint": (str, "a string")}


def make_scorer(
    spec: ScorerSpec,
    truth_by_id: Mapping[str, Iterable[int]] | None = None,
    cache_dir: str | Path | None = None,
    workers: int = 1,
) -> _ScorerBase:
    """Build a scorer instance from a declarative spec.

    ``truth_by_id`` supplies the oracle's ground truth when it is not already
    in ``spec.parameters``; ``cache_dir`` enables the remote scorer's disk
    cache, and ``workers`` bounds its concurrent requests.
    """
    if spec.kind not in SCORER_KINDS:
        raise ScorerError(f"unknown scorer kind {spec.kind!r}; expected one of {SCORER_KINDS}")
    params = dict(spec.parameters)
    unknown = set(params) - _ALLOWED_PARAMS[spec.kind]
    if unknown:
        raise ScorerError(f"unknown parameter(s) {sorted(unknown)} for scorer kind {spec.kind!r}")
    for key, value in params.items():
        if key not in _PARAM_TYPES:
            continue
        kind, what = _PARAM_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ScorerError(f"scorer parameter {key!r} must be {what}, got {value!r}")
    if spec.kind == "oracle_noise":
        truth = params.get("truth_by_id", truth_by_id)
        if truth is None:
            raise ScorerError("oracle_noise scorer requires ground truth (truth_by_id)")
        return OracleNoiseScorer(params.get("sigma", 0.0), spec.seed, truth)
    if spec.kind == "uniform_random":
        return UniformRandomScorer(spec.seed)
    if spec.kind == "constant":
        if "value" not in params:
            raise ScorerError("constant scorer requires parameter 'value'")
        return ConstantScorer(params["value"])
    # an empty endpoint is refused by RemoteScorer itself
    return RemoteScorer(params.pop("endpoint", ""), cache_dir=cache_dir, workers=workers, **params)

