"""Threshold calibration with a finite-sample risk guarantee.

The coverage loss of an uncertainty set is the fraction of ground-truth
tokens it misses. Empirical risk, as a function of the selection threshold
lambda, is a non-increasing right-continuous step function; calibration picks
the smallest lambda whose empirical risk clears the sample-size-adjusted
bound alpha - (1 - alpha)/n, which keeps the expected loss of a fresh
exchangeable example at or below alpha. If even lambda = 1 fails the bound
(possible for small n, where the bound goes negative), calibration falls back
to lambda = 1 and reports infeasibility; the guarantee still holds there
because the full set has zero loss.

Every risk and every ``<= bound`` decision here reads one ``RiskStep``: the
ground-truth scores of all examples sorted once, each weighted 1/|T_i| by
its example, with prefix sums of the weight of the tokens a cutoff misses.
Building it takes O(M log M) time and O(M) memory for M ground-truth tokens;
the risk at any set of thresholds is then one ``searchsorted``. A decision
whose float risk lies within a small window of the bound is redone exactly
in rationals, so ties do not depend on the order of float summation.

The step and the critical thresholds read a dataset's ``ScoredArrays``
(flat scores, offsets and truth mask). Every function here also takes a
sequence of ``CalibrationExample``, flattened into arrays once per call.
``calibrate_exact``, ``calibrate_grid`` and ``risk_curve`` also take a
``RiskStep`` already built, so one step can serve a calibration and its
curve.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

from .core import CalibrationExample, GroundTruthExplanation, ScoredArrays

if TYPE_CHECKING:
    from .sets import UncertaintySet

DEFAULT_GRID_SIZE = 1001
# The largest uniform grid: grid calibration holds about 41 bytes per point
MAX_GRID_SIZE = 10_000_000

MODE_EXACT = "exact"
MODE_GRID = "grid"

# A calibration set: its arrays, or examples that are flattened into them.
Scored = ScoredArrays | Sequence[CalibrationExample]

# Float risks this close to the bound are decided exactly. The float risk
# errs by less than (M + 2) * eps for M ground-truth tokens (rounding of the
# weights, their prefix sums and the division by n); the window widens to
# that should it ever be larger.
TIE_WINDOW = 1e-9


@dataclass(frozen=True)
class RiskCurve:
    """Empirical risk sampled on an ascending threshold grid."""

    thresholds: tuple[float, ...]
    risks: tuple[float, ...]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        object.__setattr__(self, "risks", tuple(float(r) for r in self.risks))
        if len(self.thresholds) != len(self.risks):
            raise ValueError("thresholds and risks must have equal length")
        if not self.thresholds:
            raise ValueError("risk curve must be non-empty")
        t = np.asarray(self.thresholds)
        if t[0] < 0.0 or t[-1] > 1.0 or np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be strictly ascending within [0, 1]")
        r = np.asarray(self.risks)
        if np.any(np.diff(r) > 0):
            raise ValueError("risks must be non-increasing in the threshold")
        if self.thresholds[-1] == 1.0 and self.risks[-1] != 0.0:
            raise ValueError("risk at threshold 1 must be exactly 0")

    def rows(self) -> Iterator[tuple[float, float, int]]:
        """(lambda, risk, n) rows for CSV export."""
        for t, r in zip(self.thresholds, self.risks):
            yield (t, r, self.n)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of threshold calibration on one calibration set."""

    lambda_hat: float
    alpha: float
    n: int
    adjusted_bound: float
    feasible: bool
    mode: str
    grid_size: int | None = None
    scorer_id: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, rec: dict[str, Any]) -> "CalibrationResult":
        """The result a JSON object holds; a value of the wrong JSON type or
        out of range raises ValueError naming its key."""
        number = (int, float)
        res = cls(
            lambda_hat=float(_json_value(rec, "lambda_hat", number, "a number")),
            alpha=float(_json_value(rec, "alpha", number, "a number")),
            n=_json_value(rec, "n", (int,), "an integer"),
            adjusted_bound=float(_json_value(rec, "adjusted_bound", number, "a number")),
            feasible=_json_value(rec, "feasible", (bool,), "true or false"),
            mode=_json_value(rec, "mode", (str,), "a string"),
            grid_size=_json_value(rec, "grid_size", (int, type(None)), "an integer or null"),
            scorer_id=_json_value(rec, "scorer_id", (str, type(None)), "a string or null"),
        )
        size = res.grid_size
        for key, ok, what in (
            ("lambda_hat", 0.0 <= res.lambda_hat <= 1.0, "in [0, 1]"),
            ("alpha", 0.0 < res.alpha < 1.0, "in (0, 1)"),
            ("n", res.n >= 1, ">= 1"),
            ("adjusted_bound", math.isfinite(res.adjusted_bound), "finite"),
            ("mode", res.mode in (MODE_EXACT, MODE_GRID), "'exact' or 'grid'"),
            ("grid_size", size is None if res.mode == MODE_EXACT else (size or 0) >= 2,
             "null in exact mode and an integer >= 2 in grid mode"),
            ("grid_size", (size or 0) <= MAX_GRID_SIZE, f"at most {MAX_GRID_SIZE}"),
        ):
            if not ok:
                value = getattr(res, key)
                raise ValueError(f"calibration field {key!r} must be {what}, got {value!r}")
        return res


def _json_value(rec: dict[str, Any], key: str, types: tuple[type, ...], what: str) -> Any:
    """``rec[key]`` if its type is exactly one of ``types``, so that true and
    false are no numbers. A key that may be null may also be missing."""
    value = rec.get(key) if type(None) in types else rec[key]
    if type(value) not in types:
        raise ValueError(f"calibration field {key!r} must be {what}, got {value!r}")
    return value


def loss(uncertainty_set: "UncertaintySet", truth: GroundTruthExplanation) -> float:
    """Fraction of ground-truth token positions missing from the set."""
    if len(truth.indices) == 0:
        raise ValueError("ground-truth explanation is empty")
    covered = len(truth.indices & uncertainty_set.indices)
    return 1.0 - covered / len(truth.indices)


def adjusted_bound(alpha: float, n: int) -> float:
    """Sample-size-corrected risk bound alpha - (1 - alpha)/n; may be negative."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return alpha - (1.0 - alpha) / n


class RiskStep:
    """The empirical risk of a calibration set as a step function of lambda.

    A token with score s enters the set at lambda iff s >= 1 - lambda (the
    float subtraction, ties included). So an example's loss at lambda is the
    share of its truth scores below 1 - lambda, and the risk is the missed
    weight, each truth score weighing 1/|T_i|, below that cutoff divided by n.
    The truth scores of all examples are sorted once with their weights, and
    ``missed[k]`` is the weight of the k smallest, so the risk at lambda is
    ``missed[searchsorted(truth, 1 - lambda, side="left")] / n``. It is exactly
    0.0 at lambda = 1 and non-increasing in lambda. ``arrays`` is the
    calibration set it was built from.
    """

    def __init__(self, examples: Scored):
        arrays = _as_arrays(examples)
        if len(arrays) == 0:
            raise ValueError("need at least one calibration example")
        marked = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(arrays.truth)))
        sizes = marked[arrays.offsets[1:]] - marked[arrays.offsets[:-1]]
        if not sizes.all():
            empty = arrays.ids[int(np.argmin(sizes))]
            raise ValueError(f"example {empty!r} has an empty explanation")
        # example by example, so equal scores keep the order the sums were taken in
        truth = arrays.scores[arrays.truth]
        order = np.argsort(truth, kind="stable")
        self.arrays = arrays
        self.n = len(arrays)
        self._truth = truth[order]
        # truth size of the example owning each sorted score
        self._sizes = np.repeat(sizes, sizes)[order]
        self._missed = np.concatenate(([0.0], np.cumsum(1.0 / self._sizes)))
        self._window = max(TIE_WINDOW, (self._truth.size + 2) * np.finfo(np.float64).eps)

    def _at(self, lambdas: Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Number of truth scores each threshold misses, and its risk."""
        lam = np.atleast_1d(np.asarray(lambdas, dtype=np.float64))
        cut = np.searchsorted(self._truth, 1.0 - lam, side="left")
        return cut, self._missed[cut] / self.n

    def risks(self, lambdas: Sequence[float] | np.ndarray) -> np.ndarray:
        """Empirical risk at each threshold."""
        return self._at(lambdas)[1]

    def _exact_missed(self, k: int) -> Fraction:
        """Missed weight of the k smallest truth scores, as an exact rational."""
        counts = np.bincount(self._sizes[:k])
        return sum((Fraction(int(c), t) for t, c in enumerate(counts) if c), Fraction(0))

    def within(self, lambdas: Sequence[float] | np.ndarray, bound: float) -> np.ndarray:
        """Whether the empirical risk at each threshold is at most ``bound``.

        Away from the bound the float risk decides. Within the tie window,
        the missed weight is recounted exactly, sum over truth sizes t of
        (missed tokens of size-t examples) / t, and compared with n times
        the float bound as a rational.
        """
        cut, risk = self._at(lambdas)
        ok = risk <= bound
        near = np.abs(risk - bound) <= self._window
        if near.any():
            limit = Fraction(bound) * self.n
            for k in np.unique(cut[near]):
                ok[cut == k] = self._exact_missed(int(k)) <= limit
        return ok


def _as_arrays(examples: Scored) -> ScoredArrays:
    return examples if isinstance(examples, ScoredArrays) else ScoredArrays.from_examples(examples)


def _as_step(examples: Scored | RiskStep) -> RiskStep:
    return examples if isinstance(examples, RiskStep) else RiskStep(examples)


def empirical_risk(examples: Scored, lam: float) -> float:
    """Mean coverage loss over the calibration examples at threshold ``lam``."""
    return float(RiskStep(examples).risks([lam])[0])


def critical_thresholds(examples: Scored) -> np.ndarray:
    """Ascending candidate thresholds {1 - s : s an observed score} plus 0 and 1.

    The empirical risk is constant between consecutive candidates, so its
    true infimum over [0, 1] is attained on this finite set.
    """
    arrays = _as_arrays(examples)
    if len(arrays) == 0:
        raise ValueError("need at least one calibration example")
    return np.unique(np.concatenate((1.0 - arrays.scores, [0.0, 1.0])))


def _first_feasible(
    step: RiskStep,
    lambdas: np.ndarray,
    alpha: float,
    mode: str,
    grid_size: int | None,
    scorer_id: str | None,
) -> CalibrationResult:
    """The smallest of the ascending ``lambdas`` whose risk meets the bound."""
    bound = adjusted_bound(alpha, step.n)
    feasible_at = np.flatnonzero(step.within(lambdas, bound))
    if feasible_at.size > 0:
        lam_hat, feasible = float(lambdas[feasible_at[0]]), True
    else:
        lam_hat, feasible = 1.0, False
    return CalibrationResult(
        lambda_hat=lam_hat,
        alpha=alpha,
        n=step.n,
        adjusted_bound=bound,
        feasible=feasible,
        mode=mode,
        grid_size=grid_size,
        scorer_id=scorer_id,
    )


def calibrate_exact(
    examples: Scored | RiskStep,
    alpha: float,
    scorer_id: str | None = None,
) -> CalibrationResult:
    """Calibrate by exact scan over the critical thresholds.

    Returns the smallest threshold whose empirical risk meets the adjusted
    bound; no threshold strictly below it is feasible. Score-equals-cutoff
    ties are included in the set, with no epsilon slack anywhere, and a risk
    equal to the bound counts as meeting it, exactly. Sorting the candidates
    and the truth scores dominates: O(K log K) time and O(K) memory for K
    scores in all.
    """
    step = _as_step(examples)
    lambdas = critical_thresholds(step.arrays)
    return _first_feasible(step, lambdas, alpha, MODE_EXACT, None, scorer_id)


def uniform_grid(size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Evenly spaced thresholds over [0, 1], endpoints included."""
    if not 2 <= size <= MAX_GRID_SIZE:
        raise ValueError(f"grid size must be >= 2 and at most {MAX_GRID_SIZE}, got {size}")
    return np.linspace(0.0, 1.0, size)


def _check_grid(grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if g[0] < 0.0 or np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly ascending within [0, 1]")
    if g[-1] != 1.0:
        raise ValueError("grid must end at 1")
    return g


def calibrate_grid(
    examples: Scored | RiskStep,
    alpha: float,
    grid: Sequence[float] | np.ndarray | None = None,
    scorer_id: str | None = None,
) -> CalibrationResult:
    """Calibrate on an ascending threshold grid ending at 1.

    Returns the smallest grid point whose empirical risk meets the bound,
    decided like ``calibrate_exact`` on the same risk step; if even the last
    point fails the result is infeasible with lambda 1.
    """
    g = _check_grid(uniform_grid() if grid is None else grid)
    return _first_feasible(_as_step(examples), g, alpha, MODE_GRID, int(g.size), scorer_id)


def calibrate_mode(
    examples: Scored | RiskStep,
    alpha: float,
    mode: str,
    grid_size: int | None = DEFAULT_GRID_SIZE,
    scorer_id: str | None = None,
) -> CalibrationResult:
    """``calibrate_exact``, or ``calibrate_grid`` on the uniform grid of ``grid_size`` points."""
    if mode == MODE_EXACT:
        return calibrate_exact(examples, alpha, scorer_id)
    if mode != MODE_GRID:
        raise ValueError(f"mode must be 'exact' or 'grid', got {mode!r}")
    return calibrate_grid(examples, alpha, uniform_grid(grid_size), scorer_id)


def risk_curve(
    examples: Scored | RiskStep,
    grid: Sequence[float] | np.ndarray | None = None,
) -> RiskCurve:
    """Evaluate the empirical risk on a grid (default: 1001 uniform points)."""
    g = np.asarray(uniform_grid() if grid is None else grid, dtype=np.float64)
    step = _as_step(examples)
    return RiskCurve(thresholds=tuple(g.tolist()), risks=tuple(step.risks(g).tolist()), n=step.n)
