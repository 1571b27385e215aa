"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

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
