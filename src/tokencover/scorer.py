"""Importance scorers and the content-addressed score cache.

A scorer maps a tokenized question to per-token importance scores in [0, 1].
Built-in kinds: a noisy oracle around the ground truth, a seeded uniform
scorer, a constant scorer, and a remote HTTP scorer with a persistent disk
cache. Stochastic kinds derive all randomness from their seed and the content
being scored, never from global state, so repeated calls are reproducible.
All oracle noise comes from one batched rule, ``_oracle_scores``.

``score_many`` scores a chunk of at most ``_SCORE_CHUNK`` questions into one
flat array, one call each. Each scorer states its rule once, in one of the
two methods, and the base class derives the other. The remote scorer's
``score_many`` is the package's one use of threads: its cache misses.
Context-free scorers also score lone (position, token) pairs: ``score_tokens``.
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
from functools import lru_cache
from hashlib import sha256
from json.encoder import encode_basestring
from pathlib import Path
from statistics import NormalDist
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .core import ImportanceScores, ScoredArrays, TokenizedQuestion, _write_atomic

ScoreCacheKey = str

_NUMBER = (numbers.Real, "a number")
_INTEGER = (numbers.Integral, "an integer")
# each kind's spec parameters: {kind: {name: (type, what an error calls the type)}}
_PARAMS = {
    "oracle_noise": {"sigma": _NUMBER},
    "uniform_random": {},
    "constant": {"value": _NUMBER},
    "remote": {"endpoint": (str, "a string"), "timeout": _NUMBER, "retries": _INTEGER,
               "backoff": _NUMBER},
}
SCORER_KINDS = tuple(_PARAMS)

_NORMAL = NormalDist()
_BELOW_ONE = float(np.nextafter(1.0, 0.0))

# Questions (or ball members) per ``score_many`` call, which bounds its memory
_SCORE_CHUNK = 1_024


class ScorerError(ValueError):
    """Raised for invalid scorer configuration or unusable scorer output."""


def cache_key(prompt: str, tokens: Sequence[str], scorer_identity: str) -> ScoreCacheKey:
    """Collision-resistant digest of (prompt, tokens, scorer identity).

    Any change to the prompt, any token, the token order, or the scorer
    identity yields a different key. The key is the sha256 of the compact
    UTF-8 JSON ``[prompt,[token,...],scorer_identity]``; the hasher state after
    the prompt is built once per (prompt, identity) and copied per key.
    """
    head, tail = _key_parts(prompt, scorer_identity)
    h = head.copy()
    h.update(",".join(map(encode_basestring, tokens)).encode() + tail)
    return h.hexdigest()


@lru_cache(maxsize=64)
def _key_parts(prompt: str, scorer_identity: str) -> tuple[Any, bytes]:
    """The sha256 state after ``[prompt,[`` and the bytes ``],identity]``
    of ``cache_key``'s JSON. Callers copy the state before updating it."""
    head = sha256(("[" + json.dumps(prompt, ensure_ascii=False) + ",[").encode())
    return head, ("]," + json.dumps(scorer_identity, ensure_ascii=False) + "]").encode()


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
    into [0, 1]. The pairs are scored in one batch, which encodes each
    distinct "seed|j|" prefix once."""
    if not sigma > 0:
        return [1.0 if m else 0.0 for m in in_truth]
    positions = list(positions)
    prefix = {j: f"{seed}|{j}|".encode() for j in set(positions)}
    digests = b"".join([sha256(prefix[j] + tok.encode()).digest()
                        for j, tok in zip(positions, tokens)])
    v = np.array(_normal_deviates(digests))
    v *= sigma
    v += np.fromiter(in_truth, dtype=bool)
    return np.minimum(np.maximum(v, 0.0, out=v), 1.0, out=v).tolist()


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

    def score_tokens(self, questions: Sequence[TokenizedQuestion], owners: Sequence[int],
                     positions: Sequence[int], tokens: Sequence[str]) -> np.ndarray:
        """Score (position, token) pairs as one float64 array, one call per
        pair; pair i sits in ``questions[owners[i]]``. Only defined for
        context-free scorers, whose score of a token ignores the other tokens."""
        raise ScorerError(
            f"coordinatewise mode requires a context-free scorer; {self.identity!r} is not")


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

    def score_tokens(self, questions: Sequence[TokenizedQuestion], owners: Sequence[int],
                     positions: Sequence[int], tokens: Sequence[str]) -> np.ndarray:
        truths = [self._truth(q.id) for q in questions]
        self.calls += len(positions)
        return np.array(_oracle_scores(
            [j in truths[i] for i, j in zip(owners, positions)], self.sigma, self.seed,
            positions, tokens), dtype=np.float64)


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

    def score_tokens(self, questions: Sequence[TokenizedQuestion], owners: Sequence[int],
                     positions: Sequence[int], tokens: Sequence[str]) -> np.ndarray:
        self.calls += len(positions)
        return np.full(len(positions), self.value)


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
        # entry j is str(j) encoded; grown by rebinding, so a reader never
        # sees a partly built table
        self._suffixes: list[bytes] = []

    def score_many(self, questions: Sequence[TokenizedQuestion]) -> np.ndarray:
        """The score at position j is the unit uniform of the sha256 of
        "seed|key|j", key the question's ``cache_key``: one encoded head per
        question and one hash call per position."""
        suffixes = self._suffixes
        k = max((len(question.tokens) for question in questions), default=0)
        if len(suffixes) < k:
            suffixes = self._suffixes = suffixes + [
                str(j).encode() for j in range(len(suffixes), k)]
        digests = []
        for question in questions:
            key = cache_key(question.prompt, question.tokens, self.identity)
            head = f"{self.seed}|{key}|".encode()
            digests.append(b"".join([sha256(head + s).digest()
                                     for s in suffixes[:len(question.tokens)]]))
        self.calls += len(questions)
        return _unit_uniforms(b"".join(digests))


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
        if not 0.0 < timeout < float("inf"):  # NaN fails both
            raise ScorerError(f"timeout must be finite and > 0, got {timeout}")
        if not 0.0 <= backoff < float("inf"):
            raise ScorerError(f"backoff must be finite and >= 0, got {backoff}")
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


def make_scorer(
    spec: ScorerSpec,
    truth_by_id: Mapping[str, Iterable[int]] | None = None,
    cache_dir: str | Path | None = None,
    workers: int = 1,
) -> _ScorerBase:
    """Build a scorer instance from a declarative spec.

    ``truth_by_id`` supplies the oracle's ground truth; ``cache_dir`` enables
    the remote scorer's disk cache, and ``workers`` bounds its concurrent
    requests.
    """
    if spec.kind not in SCORER_KINDS:
        raise ScorerError(f"unknown scorer kind {spec.kind!r}; expected one of {SCORER_KINDS}")
    params = dict(spec.parameters)
    allowed = _PARAMS[spec.kind]
    unknown = params.keys() - allowed
    if unknown:
        raise ScorerError(f"unknown parameter(s) {sorted(unknown)} for scorer kind {spec.kind!r}")
    for key, value in params.items():
        kind, what = allowed[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ScorerError(f"scorer parameter {key!r} must be {what}, got {value!r}")
    if spec.kind == "oracle_noise":
        if truth_by_id is None:
            raise ScorerError("oracle_noise scorer requires ground truth (truth_by_id)")
        return OracleNoiseScorer(params.get("sigma", 0.0), spec.seed, truth_by_id)
    if spec.kind == "uniform_random":
        return UniformRandomScorer(spec.seed)
    if spec.kind == "constant":
        if "value" not in params:
            raise ScorerError("constant scorer requires parameter 'value'")
        return ConstantScorer(params["value"])
    # an empty endpoint is refused by RemoteScorer itself
    return RemoteScorer(params.pop("endpoint", ""), cache_dir=cache_dir, workers=workers, **params)

