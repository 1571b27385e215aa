"""Domain types and dataset I/O for token-level explanation coverage.

A calibration example pairs a tokenized question with per-token importance
scores in [0, 1] and a ground-truth explanation given as token positions.
Datasets are stored as JSON Lines, one example per line.

A dataset is one type, ``ScoredArrays``: ids, token tuples and answers, plus
flat scores, offsets and a truth mask. Loading, synthetic generation,
splitting, writing and the ground-truth lookup all work on it; per-record
``CalibrationExample``s are a view built from it on first use.
``load_dataset`` reads each line once and checks it with one per-record
rule: the schema checks, then the invariants, whose violations only
``validate_example`` names.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import random
import stat
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Iterable

import numpy as np

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


@dataclass(frozen=True, eq=False)
class ScoredArrays:
    """The columnar form of a scored dataset, read by calibration and the CLI.

    Example i owns ``scores[offsets[i]:offsets[i + 1]]``, one float64 per
    token, and ``truth`` marks its ground-truth positions in the same flat
    layout, so a repeated explanation index counts once. ``ids``, ``tokens``
    and ``answers`` hold the rest of each record, one entry per example. The
    arrays are read-only, so they cannot drift from examples built from them.
    """

    ids: tuple[str, ...]
    tokens: tuple[tuple[str, ...], ...]
    answers: tuple[str | None, ...]
    scores: np.ndarray
    offsets: np.ndarray
    truth: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.scores, self.offsets, self.truth):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_examples(cls, examples: Iterable[CalibrationExample]) -> "ScoredArrays":
        """Flatten examples; an explanation index outside its scores is rejected."""
        examples = tuple(examples)
        values = [ex.scores.values for ex in examples]
        indices = [ex.explanation.indices for ex in examples]
        return cls._pack(
            [ex.question.id for ex in examples],
            [ex.question.tokens for ex in examples],
            [ex.answer for ex in examples],
            np.fromiter(chain.from_iterable(values), dtype=np.float64),
            list(map(len, values)),
            list(map(len, indices)),
            np.fromiter(chain.from_iterable(indices), dtype=np.int64),
        )

    @classmethod
    def _pack(cls, ids, tokens, answers, scores: np.ndarray, lengths: list[int],
              counts: list[int], positions: np.ndarray) -> "ScoredArrays":
        """Arrays from flat scores and each example's truth positions, ``counts[i]``
        of them for example i; a position outside its example is a ValueError."""
        size = np.asarray(lengths, dtype=np.int64)
        owner = np.repeat(np.arange(len(size)), counts)
        outside = (positions < 0) | (positions >= size[owner])
        if outside.any():
            first = int(np.argmax(outside))
            i = int(owner[first])
            raise ValueError(f"example {ids[i]!r}: explanation index "
                             f"{int(positions[first])} outside [0, {lengths[i]})")
        offsets = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(size)))
        truth = np.zeros(scores.size, dtype=bool)
        truth[offsets[owner] + positions] = True
        return cls(ids=tuple(ids), tokens=tuple(tokens), answers=tuple(answers),
                   scores=scores, offsets=offsets, truth=truth)

    def take(self, rows: list[int]) -> "ScoredArrays":
        """The examples at ``rows``, in that order, each with its scores and truth."""
        lengths = np.diff(self.offsets)[rows]
        offsets = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lengths)))
        # each kept token's flat index in self: its row's old start plus its place in the row
        flat = np.repeat(self.offsets[rows] - offsets[:-1], lengths) + np.arange(offsets[-1])
        return ScoredArrays(ids=tuple(self.ids[i] for i in rows),
                            tokens=tuple(self.tokens[i] for i in rows),
                            answers=tuple(self.answers[i] for i in rows),
                            scores=self.scores[flat], offsets=offsets, truth=self.truth[flat])

    def questions(self) -> list[TokenizedQuestion]:
        return [TokenizedQuestion(id=rid, tokens=toks) for rid, toks in zip(self.ids, self.tokens)]

    def positions(self, mask: np.ndarray) -> list[list[int]]:
        """Per example, the sorted positions set in ``mask``, a flat boolean
        array in the layout of ``scores``, counted from the example's start."""
        marked = np.flatnonzero(mask)
        owner = np.searchsorted(self.offsets, marked, side="right") - 1
        local = (marked - self.offsets[owner]).tolist()
        bounds = np.searchsorted(marked, self.offsets).tolist()
        return [local[a:b] for a, b in zip(bounds, bounds[1:])]

    @functools.cached_property
    def examples(self) -> tuple[CalibrationExample, ...]:
        """One ``CalibrationExample`` per record, built on first use, so a
        dataset that is only calibrated never builds per-record objects."""
        bounds = self.offsets.tolist()
        values = self.scores.tolist()
        return tuple(
            CalibrationExample(question=q, scores=ImportanceScores(tuple(values[a:b])),
                               explanation=GroundTruthExplanation(frozenset(truth)),
                               answer=answer)
            for q, truth, answer, a, b in zip(self.questions(), self.positions(self.truth),
                                              self.answers, bounds, bounds[1:])
        )


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


def load_dataset(path: str | Path, clamp_scores: bool = False) -> ScoredArrays:
    """Read a JSON Lines dataset, validating every record.

    Each line holds an object with fields ``id``, ``tokens``, ``scores``,
    ``explanation_indices`` and optionally ``answer``; blank lines are
    skipped. With ``clamp_scores`` numeric scores outside [0, 1] are clamped
    instead of rejected (infinities to 0 or 1); NaN is rejected either way.
    Errors name the offending line, record and field; a repeated id is
    rejected with the lines of both records.

    Each line is read once, checked by one per-record rule and appended to
    the flat lists of ``ScoredArrays``. A record that breaks an invariant is
    built as an example, and ``validate_example`` names every violation.
    """
    path = Path(path)
    first_line: dict[str, int] = {}  # its keys are the ids, in file order
    tokens, answers, scores, counts, positions = [], [], [], [], []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                rec = json.loads(line)
            except ValueError as e:  # JSONDecodeError, or an integer over the digit limit
                raise DatasetError(f"line {lineno}: invalid JSON: {e}") from None
            rid, toks, vals, idx, answer = _checked_row(rec, lineno, clamp_scores)
            if rid in first_line:
                raise DatasetError(
                    f"line {lineno}: duplicate id {rid!r}, first used on line {first_line[rid]}"
                )
            first_line[rid] = lineno
            tokens.append(tuple(toks))
            answers.append(answer)
            scores.extend(vals)
            counts.append(len(idx))
            positions.extend(idx)
    if not first_line:
        raise DatasetError(f"{path}: dataset contains no records")
    return ScoredArrays._pack(list(first_line), tokens, answers,
                              np.array(scores, dtype=np.float64), list(map(len, tokens)), counts,
                              np.array(positions, dtype=np.int64))


_STR, _NUMBER, _INT = frozenset({str}), frozenset({int, float}), frozenset({int})


def _checked_row(rec: Any, lineno: int, clamp_scores: bool) -> tuple:
    """A parsed line's (id, tokens, scores, indices, answer), its scores
    clamped if asked, or the error it breaks: the first schema error, with
    exact types so a JSON true or false is no number, else every violation
    ``validate_example`` names."""
    try:
        rid, toks, vals, idx = rec["id"], rec["tokens"], rec["scores"], rec["explanation_indices"]
        answer = rec.get("answer")
    except KeyError as e:  # the fields are read in order, so this is the first one missing
        raise DatasetError(f"line {lineno}: missing field {e.args[0]!r}") from None
    except TypeError:  # an array, string, number or null
        raise DatasetError(f"line {lineno}: record must be a JSON object") from None
    if type(rid) is not str:
        raise DatasetError(f"line {lineno}: field 'id' must be a string")
    if type(toks) is not list or not _STR.issuperset(map(type, toks)):
        raise DatasetError(f"line {lineno} (id={rid!r}): field 'tokens' must be a list of strings")
    if type(vals) is not list or not _NUMBER.issuperset(map(type, vals)):
        raise DatasetError(f"line {lineno} (id={rid!r}): field 'scores' must be a list of numbers")
    if clamp_scores:  # a huge integer clamps like an infinity; NaN stays, to fail as not finite
        vals = [s if s != s else min(1.0, max(0.0, s)) for s in vals]
    in_range = not vals or (0.0 <= min(vals) and max(vals) <= 1.0)
    if not in_range:  # only then can a score be an integer beyond the float range
        for j, s in enumerate(vals):
            try:
                float(s)
            except OverflowError:
                raise DatasetError(
                    f"line {lineno} (id={rid!r}): scores[{j}] is outside the range of a float"
                ) from None
    if type(idx) is not list or not _INT.issuperset(map(type, idx)):
        raise DatasetError(
            f"line {lineno} (id={rid!r}): field 'explanation_indices' must be a list of integers"
        )
    if answer is not None and type(answer) is not str:
        raise DatasetError(f"line {lineno} (id={rid!r}): field 'answer' must be a string or null")
    # min and max pass over a NaN that is not first, the sum does not; an
    # empty token list fails the index bounds
    if (in_range and rid and all(toks) and len(vals) == len(toks) and idx
            and 0 <= min(idx) and max(idx) < len(toks) and not math.isnan(sum(vals))):
        return rid, toks, vals, idx, answer
    example = CalibrationExample(question=TokenizedQuestion(id=rid, tokens=tuple(toks)),
                                 scores=ImportanceScores(tuple(vals)),
                                 explanation=GroundTruthExplanation(frozenset(idx)),
                                 answer=answer)
    raise DatasetError(f"line {lineno} (id={rid!r}): " + "; ".join(validate_example(example)))


def write_dataset(arrays: ScoredArrays, path: str | Path) -> None:
    """Write a dataset as JSON Lines, atomically; loading the file gives its
    examples exactly."""
    bounds = arrays.offsets.tolist()
    rows = zip(arrays.ids, arrays.tokens, arrays.answers, bounds, bounds[1:],
               arrays.positions(arrays.truth))

    def lines() -> Iterable[str]:
        for rid, tokens, answer, lo, hi, truth in rows:
            rec: dict[str, Any] = {
                "id": rid,
                "tokens": list(tokens),
                "scores": arrays.scores[lo:hi].tolist(),
                "explanation_indices": truth,
            }
            if answer is not None:
                rec["answer"] = answer
            yield json.dumps(rec, ensure_ascii=False) + "\n"

    _write_atomic(path, lines())


def split_dataset(dataset: ScoredArrays, fraction: float,
                  seed: int) -> tuple[ScoredArrays, ScoredArrays]:
    """Split into (calibration, holdout) by a uniform random permutation.

    ``fraction`` is the share of examples on the calibration side, strictly
    between 0 and 1; the split is deterministic for a given seed and fails if
    either side would be empty.
    """
    if not 0.0 < fraction < 1.0:
        raise DatasetError(f"fraction must be in (0, 1), got {fraction}")
    n = len(dataset)
    n_left = round(fraction * n)
    if n_left <= 0 or n_left >= n:
        raise DatasetError(
            f"fraction {fraction} of {n} examples leaves one side empty ({n_left}/{n - n_left})"
        )
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return dataset.take(order[:n_left]), dataset.take(order[n_left:])


def _write_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or the strings it yields, to a temp file renamed over
    ``path``. As with ``open``, a new file is 0666 less the umask and an
    existing one keeps its mode; the umask is never set, as threads write too."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
