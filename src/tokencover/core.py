"""Domain types and dataset I/O for token-level explanation coverage.

A calibration example pairs a tokenized question with per-token importance
scores in [0, 1] and a ground-truth explanation given as token positions.
Datasets are stored as JSON Lines, one example per line.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

DEFAULT_PROMPT = (
    "Assign each word of the question an importance score between 0 and 1 "
    "reflecting how essential it is for answering. Reply with JSON of the form "
    '{"scores": [s1, ..., sk], "answer": "..."} giving one score per word, '
    "in the original order."
)


class DatasetError(ValueError):
    """Raised when a dataset file or record violates the schema."""


@dataclass(frozen=True)
class TokenizedQuestion:
    """A question split into tokens, plus the instruction used at scoring time.

    Token identity is positional: the pair (position, string) names a token,
    so duplicate strings at different positions stay distinct.
    """

    id: str
    tokens: tuple[str, ...]
    prompt: str = DEFAULT_PROMPT

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ImportanceScores:
    """Per-token scores, aligned with a question's token positions."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, j: int) -> float:
        return self.values[j]


@dataclass(frozen=True)
class GroundTruthExplanation:
    """Token positions annotated as the true explanation."""

    indices: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", frozenset(int(j) for j in self.indices))

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class CalibrationExample:
    question: TokenizedQuestion
    scores: ImportanceScores
    explanation: GroundTruthExplanation
    answer: str | None = None


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of examples; ``source_path`` is provenance only."""

    examples: tuple[CalibrationExample, ...]
    source_path: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "examples", tuple(self.examples))

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)


def validate_example(example: CalibrationExample) -> list[str]:
    """Check every invariant of one example.

    Returns a list of human-readable violations, empty when the example is
    valid. All violations are reported, not just the first.
    """
    problems: list[str] = []
    q = example.question
    if not isinstance(q.id, str) or not q.id:
        problems.append("id must be a non-empty string")
    if len(q.tokens) == 0:
        problems.append("tokens must be non-empty")
    for j, tok in enumerate(q.tokens):
        if not isinstance(tok, str) or not tok:
            problems.append(f"tokens[{j}] must be a non-empty string")
    k = len(q.tokens)
    vals = example.scores.values
    if len(vals) != k:
        problems.append(f"scores has length {len(vals)}, expected {k}")
    for j, v in enumerate(vals):
        if v != v or v in (float("inf"), float("-inf")):
            problems.append(f"scores[{j}] is not finite")
        elif not 0.0 <= v <= 1.0:
            problems.append(f"scores[{j}]={v!r} outside [0, 1]")
    idx = example.explanation.indices
    if len(idx) == 0:
        problems.append("explanation_indices must be non-empty")
    for j in sorted(idx):
        if not 0 <= j < k:
            problems.append(f"explanation index {j} outside [0, {k})")
    if example.answer is not None and not isinstance(example.answer, str):
        problems.append("answer must be a string or null")
    return problems


_REQUIRED_FIELDS = ("id", "tokens", "scores", "explanation_indices")


def _record_to_example(rec: dict[str, Any], lineno: int, clamp_scores: bool) -> CalibrationExample:
    for name in _REQUIRED_FIELDS:
        if name not in rec:
            raise DatasetError(f"line {lineno}: missing field {name!r}")
    rid = rec["id"]
    if not isinstance(rid, str):
        raise DatasetError(f"line {lineno}: field 'id' must be a string")
    tokens = rec["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise DatasetError(f"line {lineno} (id={rid!r}): field 'tokens' must be a list of strings")
    scores = rec["scores"]
    if not isinstance(scores, list) or not all(
        isinstance(s, (int, float)) and not isinstance(s, bool) for s in scores
    ):
        raise DatasetError(f"line {lineno} (id={rid!r}): field 'scores' must be a list of numbers")
    if clamp_scores:
        scores = [min(1.0, max(0.0, float(s))) for s in scores]
    indices = rec["explanation_indices"]
    if not isinstance(indices, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in indices
    ):
        raise DatasetError(
            f"line {lineno} (id={rid!r}): field 'explanation_indices' must be a list of integers"
        )
    answer = rec.get("answer")
    if answer is not None and not isinstance(answer, str):
        raise DatasetError(f"line {lineno} (id={rid!r}): field 'answer' must be a string or null")
    return CalibrationExample(
        question=TokenizedQuestion(id=rid, tokens=tuple(tokens)),
        scores=ImportanceScores(tuple(scores)),
        explanation=GroundTruthExplanation(frozenset(indices)),
        answer=answer,
    )


def load_dataset(path: str | Path, clamp_scores: bool = False) -> Dataset:
    """Read a JSON Lines dataset, validating every record.

    Each line holds an object with fields ``id``, ``tokens``, ``scores``,
    ``explanation_indices`` and optionally ``answer``. With ``clamp_scores``
    numeric scores outside [0, 1] are clamped instead of rejected. Errors
    name the offending line, record and field; a repeated id is rejected
    with the lines of both records.
    """
    path = Path(path)
    examples: list[CalibrationExample] = []
    first_line: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetError(f"line {lineno}: invalid JSON: {e}") from None
            if not isinstance(rec, dict):
                raise DatasetError(f"line {lineno}: record must be a JSON object")
            example = _record_to_example(rec, lineno, clamp_scores)
            problems = validate_example(example)
            if problems:
                detail = "; ".join(problems)
                raise DatasetError(f"line {lineno} (id={example.question.id!r}): {detail}")
            rid = example.question.id
            if rid in first_line:
                raise DatasetError(
                    f"line {lineno}: duplicate id {rid!r}, first used on line {first_line[rid]}"
                )
            first_line[rid] = lineno
            examples.append(example)
    if not examples:
        raise DatasetError(f"{path}: dataset contains no records")
    return Dataset(examples=tuple(examples), source_path=str(path))


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as JSON Lines; load_dataset(write(ds)) == ds exactly."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            rec: dict[str, Any] = {
                "id": ex.question.id,
                "tokens": list(ex.question.tokens),
                "scores": list(ex.scores.values),
                "explanation_indices": sorted(ex.explanation.indices),
            }
            if ex.answer is not None:
                rec["answer"] = ex.answer
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def split_dataset(dataset: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split into (calibration, holdout) by a uniform random permutation.

    ``fraction`` is the share of examples on the calibration side, strictly
    between 0 and 1; the split is deterministic for a given seed and fails if
    either side would be empty.
    """
    if not 0.0 < fraction < 1.0:
        raise DatasetError(f"fraction must be in (0, 1), got {fraction}")
    n = len(dataset.examples)
    n_left = round(fraction * n)
    if n_left <= 0 or n_left >= n:
        raise DatasetError(
            f"fraction {fraction} of {n} examples leaves one side empty ({n_left}/{n - n_left})"
        )
    order = list(range(n))
    random.Random(seed).shuffle(order)
    left = tuple(dataset.examples[i] for i in order[:n_left])
    right = tuple(dataset.examples[i] for i in order[n_left:])
    return (
        Dataset(examples=left, source_path=dataset.source_path),
        Dataset(examples=right, source_path=dataset.source_path),
    )


def truth_tokens(example: CalibrationExample) -> frozenset[tuple[int, str]]:
    """Ground-truth explanation as (position, token string) pairs."""
    toks = example.question.tokens
    return frozenset((j, toks[j]) for j in example.explanation.indices)
