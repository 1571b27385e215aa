"""Seeded benchmark inputs, made with the stdlib and numpy only.

Nothing here imports tokencover, so two commits under comparison read
byte-identical inputs for the same seed. Scores follow the noisy-oracle
formula that ``tokencover.scorer.oracle_noise_score`` documents (1 on truth
positions, 0 elsewhere, plus sigma times a standard normal keyed on
(seed, position, token), clamped to [0, 1]); the output checks rely on that
to recompute every set without asking the package.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from statistics import NormalDist

import numpy as np

K_MIN, K_MAX = 8, 16
TRUTH_SHARE = 0.4
SIGMA = 0.3
FANOUT = 2

_NORMAL = NormalDist()


def unit_uniform(material: str) -> float:
    h = hashlib.sha256(material.encode("utf-8")).digest()
    return (int.from_bytes(h[:8], "big") + 0.5) / 2.0**64


def oracle_scores(tokens: list[str], truth: set[int], sigma: float, seed: int) -> list[float]:
    out = []
    for j, tok in enumerate(tokens):
        v = (1.0 if j in truth else 0.0) + sigma * _NORMAL.inv_cdf(unit_uniform(f"{seed}|{j}|{tok}"))
        out.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
    return out


def scored_rows(seed: int, n: int, scorer_seed: int, prefix: str = "q") -> list[dict]:
    """``n`` scored examples. Token counts cycle through 8..16 and every
    question has round(0.4 k) truth positions, so the amount of work barely
    depends on the seed while tokens, truth and scores do."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    rows = []
    for i in range(n):
        k = K_MIN + i % (K_MAX - K_MIN + 1)
        tokens = [f"w{int(v)}" for v in rng.integers(0, 10**9, size=k)]
        truth = sorted(int(j) for j in rng.choice(k, size=max(1, round(TRUTH_SHARE * k)), replace=False))
        scores = oracle_scores(tokens, set(truth), SIGMA, scorer_seed)
        rows.append({"id": f"{prefix}{i}", "tokens": tokens, "scores": scores,
                     "explanation_indices": truth})
    return rows


def lexicon_entries(rows: list[dict]) -> dict[str, list[str]]:
    """Every distinct token gets FANOUT alternatives; symmetric and self-inclusive."""
    entries: dict[str, list[str]] = {}
    for row in rows:
        for tok in row["tokens"]:
            if tok in entries:
                continue
            alts = [f"{tok}~{i}" for i in range(1, FANOUT + 1)]
            entries[tok] = [tok, *alts]
            for a in alts:
                entries[a] = [a, tok]
    return entries


def write_jsonl(path: Path, records: list[dict]) -> str:
    """Write records as JSON Lines and return the sha256 of the bytes written."""
    data = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class RiskTable:
    """The benchmark's own view of a scored dataset, for recomputing risk."""

    def __init__(self, rows: list[dict]):
        self.n = len(rows)
        truth = [np.asarray(r["scores"], dtype=np.float64)[r["explanation_indices"]] for r in rows]
        self.truth_scores = np.concatenate(truth)
        self.owner = np.repeat(np.arange(self.n), [t.size for t in truth])
        self.truth_sizes = np.asarray([t.size for t in truth], dtype=np.float64)
        all_scores = np.concatenate([np.asarray(r["scores"], dtype=np.float64) for r in rows])
        self.critical = np.unique(np.concatenate([1.0 - all_scores, [0.0, 1.0]]))

    def risk(self, lam: float) -> float:
        covered = np.bincount(self.owner, weights=self.truth_scores >= 1.0 - lam, minlength=self.n)
        return float(np.mean(1.0 - covered / self.truth_sizes))


def selected(scores: list[float], lam: float) -> list[int]:
    return [j for j, v in enumerate(scores) if v >= 1.0 - lam]


def ball_size(k: int, d: int, m: int = FANOUT) -> int:
    """Questions within d substitutions when each of k positions has m alternatives."""
    sums = [1] + [0] * d
    for _ in range(k):
        for r in range(d, 0, -1):
            sums[r] += sums[r - 1] * m
    return sum(sums)
