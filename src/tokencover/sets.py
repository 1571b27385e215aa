"""Uncertainty sets over token positions.

At threshold lambda, a question's uncertainty set keeps every position whose
importance score is at least 1 - lambda. Sets grow monotonically with lambda:
lambda = 0 keeps only scores exactly 1, lambda = 1 keeps everything.

One comparison, ``_kept``, decides membership everywhere: ``build_set``
applies it to one question's scores, ``robust.threshold_robust_scores`` to
robust scores, and ``_set_stats`` to the flat scores of many questions at
once, giving each one's set size and loss. The CLI's ``predict`` and
``stats`` and the Monte Carlo trials read ``_set_stats``; a robust trial
reads it on the per-position maxima of its robust items (``robust._fold``).

``_score_batch`` scores ``predict``'s questions with one ``score_many`` call
per chunk, whatever the scorer; any concurrency is the scorer's own.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from .calibrate import CalibrationResult, loss
from .core import GroundTruthExplanation, ImportanceScores, TokenizedQuestion
from .scorer import _SCORE_CHUNK, ScorerError, _ScorerBase


@dataclass(frozen=True)
class UncertaintySet:
    """Selected token positions for one question at a fixed threshold."""

    question_id: str
    indices: frozenset[int]
    tokens: tuple[tuple[int, str], ...]
    lambda_used: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", frozenset(int(j) for j in self.indices))
        object.__setattr__(self, "tokens", tuple((int(j), str(t)) for j, t in self.tokens))

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class EvaluationReport:
    question_id: str
    loss: float
    set_size: int
    truth_size: int
    covered: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _kept(scores, lam: float):
    """Whether a score, or each score of an array, is in the set at ``lam``."""
    return scores >= 1.0 - lam


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")


def _set_stats(
    scores: np.ndarray, offsets: np.ndarray, truth: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sets of many questions at ``lam``, in the flat layout of ``ScoredArrays``.

    Question i owns ``scores[offsets[i]:offsets[i + 1]]`` and the same slice of
    the ``truth`` mask. Returns the flat kept mask and, per question, the set
    size and the coverage loss, the share of truth positions missed, as
    ``evaluate`` reports them. Every question needs at least one token and
    one truth position: ``np.add.reduceat`` gives an empty slice the element
    at its start, not 0, so an empty question is refused rather than
    miscounted.
    """
    _check_lambda(lam)
    if (offsets[1:] <= offsets[:-1]).any():
        raise ValueError("every question needs at least one token")
    starts = offsets[:-1]
    kept = _kept(scores, lam)
    sizes = np.add.reduceat(kept, starts, dtype=np.int64)
    covered = np.add.reduceat(kept & truth, starts, dtype=np.int64)
    truth_sizes = np.add.reduceat(truth, starts, dtype=np.int64)
    if not truth_sizes.all():
        raise ValueError("ground-truth explanation is empty")
    return kept, sizes, 1.0 - covered / truth_sizes


def build_set(question: TokenizedQuestion, scores: ImportanceScores, lam: float) -> UncertaintySet:
    """Keep every position j with scores[j] >= 1 - lam (ties included)."""
    _check_lambda(lam)
    if len(scores) != len(question.tokens):
        raise ValueError(
            f"scores length {len(scores)} does not match {len(question.tokens)} tokens"
        )
    indices = [j for j, v in enumerate(scores.values) if _kept(v, lam)]
    return UncertaintySet(
        question_id=question.id,
        indices=frozenset(indices),
        tokens=tuple((j, question.tokens[j]) for j in indices),
        lambda_used=float(lam),
    )


def _check_scorer_identity(scorer: _ScorerBase, calibration: CalibrationResult, strict: bool) -> None:
    if calibration.scorer_id is not None and scorer.identity != calibration.scorer_id:
        msg = (
            f"scorer {scorer.identity!r} does not match the calibration-time scorer "
            f"{calibration.scorer_id!r}; the risk guarantee does not transfer"
        )
        if strict:
            raise ScorerError(msg)
        warnings.warn(msg)


def predict(
    question: TokenizedQuestion,
    scorer: _ScorerBase,
    calibration: CalibrationResult,
    strict: bool = False,
) -> UncertaintySet:
    """Score a fresh question and build its set at the calibrated threshold.

    When the calibration result records a scorer identity, a mismatch with
    the supplied scorer warns by default and raises when ``strict``.
    """
    _check_scorer_identity(scorer, calibration, strict)
    return build_set(question, scorer.score_question(question), calibration.lambda_hat)


def _score_batch(questions: Sequence[TokenizedQuestion], scorer: _ScorerBase,
                 calibration: CalibrationResult, strict: bool) -> np.ndarray:
    """The scores of all questions as one flat float64 array, in input order,
    from one ``score_many`` call per ``_SCORE_CHUNK`` questions; each
    scorer's ``score_many`` checks the length of every score vector."""
    _check_scorer_identity(scorer, calibration, strict)
    flat = np.empty(sum(len(q.tokens) for q in questions))
    end = 0
    for start in range(0, len(questions), _SCORE_CHUNK):
        block = scorer.score_many(questions[start:start + _SCORE_CHUNK])
        flat[end:end + block.size] = block
        end += block.size
    return flat


def evaluate(
    uncertainty_set: UncertaintySet,
    truth: GroundTruthExplanation,
    question_id: str | None = None,
) -> EvaluationReport:
    """Coverage loss and size statistics for one predicted set."""
    if question_id is not None and question_id != uncertainty_set.question_id:
        raise ValueError(
            f"set belongs to question {uncertainty_set.question_id!r}, not {question_id!r}"
        )
    covered = len(truth.indices & uncertainty_set.indices)
    return EvaluationReport(
        question_id=uncertainty_set.question_id,
        loss=loss(uncertainty_set, truth),
        set_size=len(uncertainty_set.indices),
        truth_size=len(truth.indices),
        covered=covered,
    )
