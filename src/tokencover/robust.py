"""Certified coverage under bounded token substitutions.

An adversary may replace up to ``d`` tokens of a question, each drawn from
that token's synonym set. The robust score of a candidate token at position j
is the best plain score it attains over any question in the perturbation
ball that carries the candidate at j; thresholding robust scores yields a
robust uncertainty set of (position, candidate) items. Because the clean
question always lies inside the ball of its own perturbed version (synonym
sets are symmetric and self-inclusive), the robust set built from a noisy
question never loses a (position, token) item that the plain set on the
clean question would have kept.

Coverage is judged by one pair rule: a ground-truth item is the pair
(position, clean token), and only that exact pair covers it.
``evaluate_pairs`` and ``evaluate_robust`` apply it to one question by set
arithmetic. The Monte Carlo trials fold flat items onto positions with
``_fold`` and read the folds with the plain set rule ``sets._set_stats``: a
robust set is the plain threshold rule on per-position worst-case scores.
``_superset_holds`` is the flat check of the guarantee above.
"""

from __future__ import annotations

import itertools
import json
import random
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .calibrate import CalibrationResult
from .core import GroundTruthExplanation, TokenizedQuestion
from .scorer import _SCORE_CHUNK, _ScorerBase
from .sets import UncertaintySet, _check_scorer_identity, _kept

BALL_MODES = ("exact", "coordinatewise")

DEFAULT_ENUMERATION_BUDGET = 100_000


class BallBudgetError(ValueError):
    """Raised when a perturbation ball exceeds the enumeration budget."""


def _normalize_entries(
    entries: Mapping[str, Iterable[str]],
) -> tuple[dict[str, frozenset[str]], list[str]]:
    """Enforce self-inclusion and symmetry, reporting every repair made.

    One pass flags each entry that lacks itself or names a synonym whose
    entry does not name it back. Only flagged entries are repaired: an
    unflagged entry already points only at entries that point back at it,
    and repairs only add members, so it would need no repair of its own.
    """
    work = {str(t): frozenset(map(str, syns)) for t, syns in entries.items()}
    flagged = []
    for tok, syns in work.items():
        if tok not in syns:
            flagged.append(tok)
            continue
        for syn in syns:
            if tok not in work.get(syn, ()):
                flagged.append(tok)
                break
    repairs: list[str] = []
    for tok in flagged:
        if tok not in work[tok]:
            work[tok] |= {tok}
            repairs.append(f"added {tok!r} to its own synonym set")
    for tok in flagged:
        for syn in sorted(work[tok]):
            if syn == tok:
                continue
            if syn not in work:
                work[syn] = frozenset((syn, tok))
                repairs.append(f"created entry {syn!r} for symmetry with {tok!r}")
            elif tok not in work[syn]:
                work[syn] |= {tok}
                repairs.append(f"added {tok!r} to {syn!r} for symmetry")
    return work, repairs


@dataclass(frozen=True)
class SynonymLexicon:
    """Token -> synonym-set mapping, self-inclusive and symmetric.

    Construction repairs violations of either invariant and warns about what
    it changed. Tokens without an entry are their own singleton synonym set.
    """

    entries: dict[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized, repairs = _normalize_entries(self.entries)
        object.__setattr__(self, "entries", normalized)
        if repairs:
            shown = "; ".join(repairs[:5])
            more = f" (+{len(repairs) - 5} more)" if len(repairs) > 5 else ""
            warnings.warn(f"synonym lexicon repaired {len(repairs)} entries: {shown}{more}")

    def synonyms(self, token: str) -> frozenset[str]:
        return self.entries.get(token, frozenset((token,)))

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(path: str | Path) -> SynonymLexicon:
    """Read a JSON Lines lexicon: one {"token", "synonyms"} object per line."""
    path = Path(path)
    entries: dict[str, list[str]] = {}
    first_line: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {e}") from None
            if not isinstance(rec, dict) or "token" not in rec or "synonyms" not in rec:
                raise ValueError(f"{path}: line {lineno}: expected fields 'token' and 'synonyms'")
            tok, syns = rec["token"], rec["synonyms"]
            if not isinstance(tok, str) or not tok:
                raise ValueError(f"{path}: line {lineno}: 'token' must be a non-empty string")
            if not isinstance(syns, list) or not all(isinstance(s, str) for s in syns):
                raise ValueError(f"{path}: line {lineno}: 'synonyms' must be a list of strings")
            if tok in first_line:
                raise ValueError(f"{path}: line {lineno}: duplicate token {tok!r}, "
                                 f"first given on line {first_line[tok]}")
            first_line[tok], entries[tok] = lineno, syns
    return SynonymLexicon(entries=entries)


@dataclass(frozen=True)
class BallSpec:
    """Perturbation-ball parameters: radius, enumeration budget, scoring mode.

    ``exact`` mode evaluates the worst case by enumerating the ball;
    ``coordinatewise`` collapses the search to single-token substitutions and
    is only sound for context-free scorers.
    """

    d: int
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET
    mode: str = "exact"

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError(f"d must be >= 0, got {self.d}")
        if self.enumeration_budget < 1:
            raise ValueError(f"enumeration budget must be >= 1, got {self.enumeration_budget}")
        if self.mode not in BALL_MODES:
            raise ValueError(f"mode must be one of {BALL_MODES}, got {self.mode!r}")


def auto_ball_mode(scorer: _ScorerBase) -> str:
    """The ball mode ``auto`` stands for: coordinatewise iff the scorer is context-free."""
    return "coordinatewise" if scorer.context_free else "exact"


@dataclass(frozen=True)
class RobustItem:
    position: int
    token: str
    score: float


@dataclass(frozen=True)
class RobustUncertaintySet:
    """(position, candidate token) items whose robust score clears the cutoff."""

    question_id: str
    items: tuple[RobustItem, ...]
    lambda_used: float
    ball_size: int

    def pairs(self) -> frozenset[tuple[int, str]]:
        return frozenset((it.position, it.token) for it in self.items)

    def __len__(self) -> int:
        return len(self.items)


def ball_size(question: TokenizedQuestion, lexicon: SynonymLexicon, spec: BallSpec) -> int:
    """Number of questions within substitution distance d, without enumerating.

    With m_j alternatives at position j, the count is the sum over all
    position subsets of size at most d of the product of the subset's m_j,
    i.e. the elementary symmetric sums e_0 + e_1 + ... + e_d of the m_j.
    """
    ms = [len(lexicon.synonyms(tok)) - 1 for tok in question.tokens]
    sums = [1] + [0] * spec.d
    for m in ms:
        if m == 0:
            continue
        for r in range(min(spec.d, len(sums) - 1), 0, -1):
            sums[r] += sums[r - 1] * m
    return sum(sums)


def _alternatives(lexicon: SynonymLexicon, token: str) -> list[str]:
    return sorted(lexicon.synonyms(token) - {token})


def _iter_ball(question: TokenizedQuestion, lexicon: SynonymLexicon, d: int) -> Iterator[TokenizedQuestion]:
    tokens = question.tokens
    alts = [_alternatives(lexicon, tok) for tok in tokens]
    perturbable = [j for j, a in enumerate(alts) if a]
    yield question
    for r in range(1, min(d, len(perturbable)) + 1):
        for positions in itertools.combinations(perturbable, r):
            for choice in itertools.product(*(alts[j] for j in positions)):
                new_tokens = list(tokens)
                for j, tok in zip(positions, choice):
                    new_tokens[j] = tok
                yield TokenizedQuestion(
                    id=question.id, tokens=tuple(new_tokens), prompt=question.prompt
                )


def enumerate_ball(
    question: TokenizedQuestion, lexicon: SynonymLexicon, spec: BallSpec
) -> Iterator[TokenizedQuestion]:
    """All questions within substitution distance d, the question itself first.

    Deterministic order: substitution count, then perturbed-position tuples
    lexicographically, then per-position alternatives in sorted order. Raises
    BallBudgetError before yielding anything if the ball exceeds the budget.
    """
    size = ball_size(question, lexicon, spec)
    if size > spec.enumeration_budget:
        raise BallBudgetError(
            f"perturbation ball of question {question.id!r} has {size} members, "
            f"over the enumeration budget of {spec.enumeration_budget}"
        )
    return _iter_ball(question, lexicon, spec.d)


def _candidate_pairs(tokens: Sequence[str], lexicon: SynonymLexicon,
                     d: int) -> tuple[list[int], list[str]]:
    """The (position, candidate) pairs of a coordinatewise robust table, as
    parallel lists: at each position, every synonym of its token in sorted
    order. With d = 0 no substitution can realize any candidate besides the
    observed token, so each position has only its own token."""
    if d == 0:
        return list(range(len(tokens))), list(tokens)
    syns = [sorted(lexicon.synonyms(tok)) for tok in tokens]
    return [j for j, s in enumerate(syns) for _ in s], [c for s in syns for c in s]


def robust_scores(
    question: TokenizedQuestion,
    lexicon: SynonymLexicon,
    spec: BallSpec,
    scorer: _ScorerBase,
) -> dict[tuple[int, str], float]:
    """Worst-case-best score for every attainable (position, candidate) pair.

    Exact mode scores every ball member once and keeps, per pair, the maximum
    score seen at that position among members carrying the candidate there:
    one ``scorer.score_many`` call per chunk of ``_SCORE_CHUNK`` members, and
    ``np.maximum.at`` folds each chunk into the running maximum per pair.
    Coordinatewise mode substitutes one token at a time, which is equal to
    the exact maximum whenever the scorer is context-free; any other scorer's
    ``score_tokens`` refuses it.
    """
    if spec.mode == "coordinatewise":
        positions, candidates = _candidate_pairs(question.tokens, lexicon, spec.d)
        scores = scorer.score_tokens(question, positions, candidates)
        return dict(zip(zip(positions, candidates), scores))
    members = enumerate_ball(question, lexicon, spec)
    # every pair of the coordinatewise table is attained by some ball member
    pairs = list(zip(*_candidate_pairs(question.tokens, lexicon, spec.d)))
    slot = {pair: i for i, pair in enumerate(pairs)}
    best = np.full(len(pairs), -np.inf)
    while chunk := list(itertools.islice(members, _SCORE_CHUNK)):
        slots = [slot[pair] for member in chunk for pair in enumerate(member.tokens)]
        np.maximum.at(best, slots, scorer.score_many(chunk))
    return dict(zip(pairs, best.tolist()))


def threshold_robust_scores(
    question: TokenizedQuestion,
    table: Mapping[tuple[int, str], float],
    lam: float,
    n_ball: int,
) -> RobustUncertaintySet:
    """The robust set at lambda from a table of robust scores.

    Items are every (position, candidate) whose robust score is at least
    1 - lam, sorted by position then token; ``n_ball`` is the question's
    ball size.
    """
    items = tuple(
        RobustItem(position=j, token=tok, score=val)
        for (j, tok), val in sorted(kv for kv in table.items() if _kept(kv[1], lam))
    )
    return RobustUncertaintySet(
        question_id=question.id, items=items, lambda_used=float(lam), ball_size=n_ball
    )


def build_robust_set(
    question: TokenizedQuestion,
    lexicon: SynonymLexicon,
    spec: BallSpec,
    scorer: _ScorerBase,
    calibration: CalibrationResult,
    strict: bool = False,
) -> RobustUncertaintySet:
    """Score the question's ball and threshold it at the calibrated lambda."""
    _check_scorer_identity(scorer, calibration, strict)
    table = robust_scores(question, lexicon, spec, scorer)
    return threshold_robust_scores(
        question, table, calibration.lambda_hat, ball_size(question, lexicon, spec)
    )


def inject_noise(
    question: TokenizedQuestion, lexicon: SynonymLexicon, d: int, seed: int
) -> TokenizedQuestion:
    """Perturb up to d tokens, each replaced by a uniformly chosen synonym.

    Deterministic for a given seed. Positions without alternatives cannot be
    picked; if fewer than d positions are perturbable, all of them are. The
    result keeps the question id and always lies in the clean question's own
    perturbation ball.
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    rng = random.Random(seed)
    tokens = question.tokens
    # synonym sets include their token, so a token has alternatives iff its set has two members
    perturbable = [j for j, tok in enumerate(tokens) if len(lexicon.synonyms(tok)) > 1]
    n_perturb = min(d, len(perturbable))
    if n_perturb == 0:
        return question
    chosen = sorted(rng.sample(perturbable, n_perturb))
    new_tokens = list(tokens)
    for j in chosen:
        new_tokens[j] = rng.choice(_alternatives(lexicon, tokens[j]))
    return TokenizedQuestion(id=question.id, tokens=tuple(new_tokens), prompt=question.prompt)


@dataclass(frozen=True)
class RobustEvaluation:
    question_id: str
    loss: float
    n_items: int
    n_positions: int
    truth_size: int
    covered: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _fold(flat: np.ndarray, score: np.ndarray, size: int) -> np.ndarray:
    """The largest item score at each of ``size`` flat positions, -inf where
    no item lands; item i sits at ``flat[i]``.

    ``_kept`` is monotone in the score, so ``_set_stats`` on a fold keeps a
    position exactly when the items keep one there. A position has at most one
    clean-token item, so their fold keeps exactly the covering pairs.
    """
    best = np.full(size, -np.inf)
    np.maximum.at(best, flat, score)
    return best


def _superset_holds(
    covering: np.ndarray, scores: np.ndarray, offsets: np.ndarray, lam: float
) -> np.ndarray:
    """Per question, whether ``covering``, the fold of a robust table's
    (position, clean token) items, keeps every position that the plain set on
    the clean scores ``scores`` keeps at ``lam``. Question i owns
    ``offsets[i]:offsets[i + 1]`` of both and has at least one token.
    """
    holds = _kept(covering, lam) | ~_kept(scores, lam)
    return np.logical_and.reduceat(holds, offsets[:-1])


def evaluate_pairs(
    pairs: frozenset[tuple[int, str]],
    clean_question: TokenizedQuestion,
    truth: GroundTruthExplanation,
) -> RobustEvaluation:
    """Coverage loss of (position, token) pairs against the clean question's truth.

    A ground-truth item is the pair (position, clean token string); it counts
    as covered only when ``pairs`` holds exactly that pair, so a synonym at
    the right position does not cover it. This is set arithmetic on one
    question, the reference for the flat folds of the Monte Carlo trials.
    """
    if len(truth.indices) == 0:
        raise ValueError("ground-truth explanation is empty")
    tokens = clean_question.tokens
    covered = sum(0 <= j < len(tokens) and (j, tokens[j]) in pairs for j in truth.indices)
    return RobustEvaluation(
        question_id=clean_question.id,
        loss=1.0 - covered / len(truth.indices),
        n_items=len(pairs),
        n_positions=len({j for j, _ in pairs}),
        truth_size=len(truth.indices),
        covered=covered,
    )


def evaluate_robust(
    robust_set: RobustUncertaintySet,
    clean_question: TokenizedQuestion,
    truth: GroundTruthExplanation,
) -> RobustEvaluation:
    """Coverage loss of a robust set against the clean question's truth."""
    if robust_set.question_id != clean_question.id:
        raise ValueError(
            f"robust set belongs to question {robust_set.question_id!r}, "
            f"not {clean_question.id!r}"
        )
    return evaluate_pairs(robust_set.pairs(), clean_question, truth)


def plain_set_pairs(uncertainty_set: UncertaintySet) -> frozenset[tuple[int, str]]:
    """A plain set's (position, token) pairs, for superset checks and ``evaluate_pairs``."""
    return frozenset(uncertainty_set.tokens)
