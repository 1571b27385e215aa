"""Synthetic data generation and Monte Carlo coverage experiments.

Each trial draws an i.i.d. synthetic dataset, splits it, calibrates a
threshold on one side, and measures coverage loss on the other; optionally
the test questions are perturbed with synonym noise and predicted robustly.
Trial seeds derive from (master seed, trial index), so experiments are
reproducible and trials are independent. The dataset is drawn straight into
``ScoredArrays`` and split by rows of the arrays, so a plain trial builds no
per-question object at all.

Every per-question number comes from the library's rules. A plain trial
reads the test split's materialized scores, which are exactly what the
oracle would give on re-scoring, and thresholds them once per alpha with the
set rule of ``sets`` (``_set_stats``, the flat form of ``build_set`` and
``evaluate``); no test question is re-scored and no set object is built. A
robust trial lists each noisy question's coordinatewise table with
``robust._candidate_pairs``, the oracle being context-free; a clean-token
item takes its materialized score, and all other items are drawn in one call
of the oracle-noise rule ``scorer._oracle_scores``. ``robust._fold`` takes
the largest score at each position over all items, the clean-token items,
the noisy-token items (the comparator, the plain set on the noisy question)
and the items that are both, and per alpha ``_set_stats`` reads the folds
for set sizes and losses; ``robust._superset_holds`` checks that the robust
set keeps each pair of the plain set on the clean question. With
``workers`` above 1, trials run in spawned processes.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Any, Sequence

import numpy as np

from .calibrate import MODE_EXACT, MODE_GRID, RiskStep, calibrate_mode
from .core import ScoredArrays, split_dataset
from .robust import (
    SynonymLexicon,
    _candidate_pairs,
    _fold,
    _superset_holds,
    inject_noise,
)
from .scorer import OracleNoiseScorer, _oracle_scores, truth_map
from .sets import _kept, _set_stats


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic question generator and robust noise model."""

    n_calibration: int = 100
    n_test: int = 100
    k_range: tuple[int, int] = (8, 16)
    truth_fraction: float = 0.4
    sigma: float = 0.3
    seed: int = 0
    synonym_fanout: int = 2
    d: int = 1

    def __post_init__(self) -> None:
        k = self.k_range
        if not isinstance(k, (tuple, list)) or len(k) != 2:
            raise ValueError(f"k_range must be a pair of integers, got {k!r}")
        minimums = [("n_calibration", self.n_calibration, 1), ("n_test", self.n_test, 1),
                    ("k_range[0]", k[0], 1), ("k_range[1]", k[1], 1), ("seed", self.seed, 0),
                    ("synonym_fanout", self.synonym_fanout, 0), ("d", self.d, 0)]
        for name, value, low in minimums:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if k[0] > k[1]:
            raise ValueError(f"k_range must satisfy 1 <= min <= max, got {self.k_range}")
        for name, value in (("truth_fraction", self.truth_fraction), ("sigma", self.sigma)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 < self.truth_fraction <= 1.0:
            raise ValueError(f"truth_fraction must be in (0, 1], got {self.truth_fraction}")
        if not 0.0 <= self.sigma < float("inf"):  # NaN fails both
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class CoverageReport:
    """Aggregate of a multi-trial coverage experiment at one alpha."""

    alpha: float
    mode: str
    robust: bool
    trials: int
    mean_loss: float
    se: float | None
    mean_set_size: float
    mean_lambda: float
    feasibility_rate: float
    per_trial_losses: tuple[float, ...]
    comparator_mean_loss: float | None = None
    comparator_mean_set_size: float | None = None
    superset_rate: float | None = None
    mean_n_items: float | None = None

    def __post_init__(self) -> None:
        if self.trials != len(self.per_trial_losses):
            raise ValueError("per_trial_losses must have one entry per trial")
        for v in self.per_trial_losses:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"per-trial loss {v!r} outside [0, 1]")

    def to_dict(self) -> dict[str, Any]:
        # the field is a tuple; the dict, like the JSON it feeds, holds a list
        return {**asdict(self), "per_trial_losses": list(self.per_trial_losses)}


def _derived_seed(*parts: int) -> int:
    """Stable non-negative integer seed from a tuple of integers."""
    return int(np.random.SeedSequence(entropy=list(parts)).generate_state(1)[0])


def _scorer_seed(base_seed: int) -> int:
    return _derived_seed(base_seed, 1)


def generate_synthetic_dataset(config: SyntheticConfig, seed: int | None = None) -> ScoredArrays:
    """Draw n_calibration + n_test i.i.d. examples.

    Token count is uniform on k_range (inclusive); each position is a truth
    token with probability truth_fraction, with at least one truth token
    forced per question. Scores are materialized with the noisy oracle at the
    config's sigma, so re-scoring any question with the matching oracle
    scorer (see ``oracle_scorer``) reproduces them exactly. The draws go
    straight into the arrays.
    """
    base = config.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[base, 0]))
    s_seed = _scorer_seed(base)
    kmin, kmax = config.k_range
    n = config.n_calibration + config.n_test
    tokens: list[tuple[str, ...]] = []
    lengths: list[int] = []
    counts: list[int] = []
    positions: list[int] = []
    in_truth: list[bool] = []
    for _ in range(n):
        k = int(rng.integers(kmin, kmax + 1))
        toks = tuple(f"w{v}" for v in rng.integers(0, 1_000_000_000, size=k).tolist())
        mask = rng.random(k) < config.truth_fraction
        if not mask.any():
            mask[int(rng.integers(0, k))] = True
        truth = np.flatnonzero(mask).tolist()
        tokens.append(toks)
        lengths.append(k)
        counts.append(len(truth))
        positions.extend(truth)
        in_truth.extend(mask.tolist())
    scores = _oracle_scores(in_truth, config.sigma, s_seed,
                            chain.from_iterable(map(range, lengths)), chain.from_iterable(tokens))
    return ScoredArrays._pack([f"q{i}" for i in range(n)], tokens, [None] * n,
                              np.array(scores, dtype=np.float64), lengths, counts,
                              np.array(positions, dtype=np.int64))


def oracle_scorer(config: SyntheticConfig, dataset: ScoredArrays,
                  seed: int | None = None) -> OracleNoiseScorer:
    """The oracle that materialized the dataset's scores, rebuilt for predict."""
    base = config.seed if seed is None else seed
    return OracleNoiseScorer(config.sigma, _scorer_seed(base), truth_map(dataset))


def synthetic_lexicon(dataset: ScoredArrays, fanout: int) -> SynonymLexicon:
    """Give every distinct token ``fanout`` synthetic alternatives.

    The closure entries for the alternatives are included explicitly, so the
    lexicon is symmetric by construction and loads without repairs.
    """
    if fanout < 0:
        raise ValueError(f"fanout must be >= 0, got {fanout}")
    entries: dict[str, list[str]] = {}
    for tokens in dataset.tokens:
        for tok in tokens:
            if tok in entries or fanout == 0:
                continue
            variants = [f"{tok}~{i}" for i in range(1, fanout + 1)]
            entries[tok] = [tok, *variants]
            for v in variants:
                entries[v] = [v, tok]
    return SynonymLexicon(entries=entries)


def _split_counts(config: SyntheticConfig, dataset: ScoredArrays,
                  seed: int) -> tuple[ScoredArrays, ScoredArrays]:
    total = config.n_calibration + config.n_test
    return split_dataset(dataset, config.n_calibration / total, seed=_derived_seed(seed, 2))


def _robust_items(
    config: SyntheticConfig, test: ScoredArrays, trial_seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Perturb every test question and flatten its robust table into items.

    Returns parallel arrays with one entry per (position, candidate) item of
    every noisy question's coordinatewise table: the flat index of its
    position in ``test``, the robust score (the oracle's score of the
    candidate there), whether the candidate is the clean token there, and
    whether it is the noisy token. Only test questions are perturbed, so the
    lexicon needs only their tokens.
    """
    lexicon = synthetic_lexicon(test, config.synonym_fanout)
    noise_rng = np.random.default_rng(np.random.SeedSequence(entropy=[trial_seed, 3]))
    counts: list[int] = []
    position: list[int] = []
    candidate: list[str] = []
    clean: list[bool] = []
    noisy_token: list[bool] = []
    for q in test.questions():
        noisy = inject_noise(q, lexicon, config.d, int(noise_rng.integers(2**63)))
        js, cands = _candidate_pairs(noisy.tokens, lexicon, config.d)
        counts.append(len(js))
        position += js
        candidate += cands
        clean += [c == q.tokens[j] for j, c in zip(js, cands)]
        noisy_token += [c == noisy.tokens[j] for j, c in zip(js, cands)]
    pos = np.array(position, dtype=np.int64)
    is_clean = np.array(clean, dtype=bool)
    flat = np.repeat(test.offsets[:-1], counts) + pos
    score = test.scores[flat]
    drawn = np.flatnonzero(~is_clean)
    score[drawn] = _oracle_scores(
        test.truth[flat[drawn]].tolist(), config.sigma, _scorer_seed(trial_seed),
        pos[drawn].tolist(), [candidate[i] for i in drawn.tolist()],
    )
    return flat, score, is_clean, np.array(noisy_token, dtype=bool)


def _run_trial(
    config: SyntheticConfig,
    alphas: Sequence[float],
    mode: str,
    robust: bool,
    trial_seed: int,
) -> list[dict[str, float]]:
    """One trial from ``trial_seed``: generate, split, calibrate at each alpha, evaluate.

    Returns one row per alpha, keyed by the ``CoverageReport`` fields that an
    experiment averages over trials, each holding this trial's value.
    """
    dataset = generate_synthetic_dataset(config, seed=trial_seed)
    cal, test = _split_counts(config, dataset, trial_seed)
    step = RiskStep(cal)
    results = [calibrate_mode(step, a, mode) for a in alphas]

    if robust:
        flat, score, clean, noisy = _robust_items(config, test, trial_seed)
        size = test.scores.size
        touched = _fold(flat, score, size)
        covering = _fold(flat[clean], score[clean], size)
        # the comparator: the plain set on the noisy question
        comparator = _fold(flat[noisy], score[noisy], size)
        comparator_covering = _fold(flat[clean & noisy], score[clean & noisy], size)
    rows = []
    for res in results:
        lam = res.lambda_hat
        row: dict[str, Any] = {"mean_lambda": lam, "feasibility_rate": float(res.feasible)}
        at = (test.offsets, test.truth, lam)
        if not robust:
            _, row["mean_set_size"], row["mean_loss"] = _set_stats(test.scores, *at)
        else:
            _, row["mean_set_size"], _ = _set_stats(touched, *at)
            _, _, row["mean_loss"] = _set_stats(covering, *at)
            _, row["comparator_mean_set_size"], _ = _set_stats(comparator, *at)
            _, _, row["comparator_mean_loss"] = _set_stats(comparator_covering, *at)
            row["mean_n_items"] = np.count_nonzero(_kept(score, lam)) / len(test)
            # the materialized scores are the plain scores of the clean questions
            row["superset_rate"] = _superset_holds(covering, test.scores, test.offsets, lam)
        rows.append({key: float(np.mean(v)) for key, v in row.items()})
    return rows


def run_coverage_experiment(
    config: SyntheticConfig,
    alphas: Sequence[float],
    trials: int,
    mode: str = MODE_EXACT,
    robust: bool = False,
    workers: int = 1,
) -> list[CoverageReport]:
    """Run independent trials and aggregate them into one report per alpha.

    Each trial's dataset and scoring are shared across all alphas, which
    only recalibrates the threshold. Trial seeds derive from (config.seed,
    trial index). With a single trial the standard error is undefined and
    reported as None. With ``workers`` above 1, trials run in up to that many
    spawned processes and give the same results as a serial run; a script
    that calls this from its top level must then guard it with
    ``if __name__ == "__main__":``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if mode not in (MODE_EXACT, MODE_GRID):
        raise ValueError(f"mode must be 'exact' or 'grid', got {mode!r}")
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one alpha")
    trial_seeds = [_derived_seed(config.seed, t) for t in range(trials)]
    one = functools.partial(_run_trial, config, alphas, mode, robust)
    if workers > 1 and trials > 1:
        # imported here so that importing the package stays cheap
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(workers, trials), mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            all_trials = list(pool.map(one, trial_seeds))
    else:
        all_trials = [one(s) for s in trial_seeds]

    reports = []
    for a, rows in zip(alphas, zip(*all_trials)):
        # one 1-D mean per field: a mean over a trials x fields table sums
        # in another order and can change the last bits
        means = {key: float(np.mean([row[key] for row in rows])) for key in rows[0]}
        losses = np.array([row["mean_loss"] for row in rows])
        se = float(losses.std(ddof=1) / np.sqrt(trials)) if trials >= 2 else None
        reports.append(CoverageReport(alpha=a, mode=mode, robust=robust, trials=trials, se=se,
                                      per_trial_losses=tuple(losses.tolist()), **means))
    return reports


CSV_HEADER = "alpha,mode,robust,trials,mean_loss,se,mean_set_size,mean_lambda,feasibility_rate"


def summarize(reports: Sequence[CoverageReport]) -> str:
    """Flatten coverage reports to CSV, sorted by (alpha, mode, robust)."""
    lines = [CSV_HEADER]
    for r in sorted(reports, key=lambda r: (r.alpha, r.mode, r.robust)):
        se = "" if r.se is None else repr(r.se)
        lines.append(
            f"{r.alpha!r},{r.mode},{str(r.robust).lower()},{r.trials},"
            f"{r.mean_loss!r},{se},{r.mean_set_size!r},{r.mean_lambda!r},"
            f"{r.feasibility_rate!r}"
        )
    return "\n".join(lines) + "\n"
