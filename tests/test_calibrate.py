"""Calibration: risk, bounds, and the exact / grid threshold search.

The brute-force helpers below recompute everything from the definitions,
one example at a time, so the vectorized implementations are checked
against straight-line code rather than against themselves.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tokencover.calibrate import (
    CalibrationResult,
    RiskCurve,
    RiskStep,
    adjusted_bound,
    calibrate_exact,
    calibrate_grid,
    critical_thresholds,
    empirical_risk,
    loss,
    risk_curve,
    uniform_grid,
)
from tokencover.core import GroundTruthExplanation
from tokencover.sets import UncertaintySet, build_set

from conftest import make_example, random_dataset, random_example


def brute_indices(scores, lam):
    return {j for j, s in enumerate(scores) if s >= 1.0 - lam}


def brute_risk(examples, lam):
    total = 0.0
    for ex in examples:
        truth = ex.explanation.indices
        got = brute_indices(ex.scores.values, lam)
        total += 1.0 - len(truth & got) / len(truth)
    return total / len(examples)


def brute_first_feasible(examples, alpha, grid):
    bound = alpha - (1.0 - alpha) / len(examples)
    for lam in grid:
        if brute_risk(examples, lam) <= bound:
            return float(lam), True
    return 1.0, False


def uset(indices, lam=0.5):
    return UncertaintySet(
        question_id="q0",
        indices=frozenset(indices),
        tokens=tuple((j, f"t{j}") for j in sorted(indices)),
        lambda_used=lam,
    )


class TestLoss:
    def test_full_coverage(self):
        assert loss(uset({0, 1, 2}), GroundTruthExplanation({0, 1})) == 0.0

    def test_no_coverage(self):
        assert loss(uset({5}), GroundTruthExplanation({0, 1})) == 1.0

    def test_partial_coverage(self):
        got = loss(uset({0, 9}), GroundTruthExplanation({0, 1, 2}))
        assert got == pytest.approx(2.0 / 3.0)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            loss(uset({0}), GroundTruthExplanation(frozenset()))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 12))
            truth = set(int(v) for v in rng.choice(k, size=rng.integers(1, k + 1), replace=False))
            picked = set(int(v) for v in rng.choice(k, size=rng.integers(0, k + 1), replace=False))
            expected = 1.0 - len(truth & picked) / len(truth)
            assert loss(uset(picked), GroundTruthExplanation(truth)) == expected


class TestAdjustedBound:
    def test_known_values(self):
        assert adjusted_bound(0.1, 1) == pytest.approx(0.1 - 0.9)
        assert adjusted_bound(0.5, 9) == pytest.approx(0.5 - 0.5 / 9)
        assert adjusted_bound(0.2, 10) == pytest.approx(0.2 - 0.8 / 10)

    def test_always_below_alpha_and_increasing_in_n(self):
        for alpha in (0.05, 0.3, 0.9):
            prev = -np.inf
            for n in (1, 2, 5, 50, 5000):
                b = adjusted_bound(alpha, n)
                assert b < alpha
                assert b > prev
                prev = b

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            adjusted_bound(alpha, 10)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="n must be"):
            adjusted_bound(0.1, 0)


class TestEmpiricalRisk:
    def test_matches_definitional_mean_of_losses(self):
        # cross-check with the build_set + loss composition on random data
        rng = np.random.default_rng(21)
        for _ in range(20):
            ds = random_dataset(rng, int(rng.integers(1, 10)))
            lam = float(rng.uniform(0, 1))
            expected = np.mean(
                [
                    loss(build_set(ex.question, ex.scores, lam), ex.explanation)
                    for ex in ds.examples
                ]
            )
            assert empirical_risk(ds.examples, lam) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            ds = random_dataset(rng, int(rng.integers(1, 8)))
            for lam in (0.0, float(rng.uniform(0, 1)), 1.0):
                assert empirical_risk(ds.examples, lam) == pytest.approx(
                    brute_risk(ds.examples, lam), abs=1e-12
                )

    def test_cutoff_boundary_is_inclusive(self):
        ex = make_example(["a", "b"], [0.4, 0.0], {0})
        assert empirical_risk([ex], 1.0 - 0.4) == 0.0
        assert empirical_risk([ex], 1.0 - 0.4 - 1e-9) == 1.0

    def test_zero_at_lambda_one(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, 6)
        assert empirical_risk(ds.examples, 1.0) == 0.0

    def test_non_increasing_in_lambda(self):
        rng = np.random.default_rng(24)
        ds = random_dataset(rng, 10)
        risks = [empirical_risk(ds.examples, lam) for lam in np.linspace(0, 1, 101)]
        assert all(a >= b for a, b in zip(risks, risks[1:]))

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            empirical_risk([], 0.5)


class TestCriticalThresholds:
    def test_frozen_example(self):
        exs = [
            make_example(["a", "b"], [0.2, 0.9], {0}, qid="q0"),
            make_example(["c"], [0.5], {0}, qid="q1"),
        ]
        got = critical_thresholds(exs)
        expected = sorted({1.0 - 0.2, 1.0 - 0.9, 1.0 - 0.5, 0.0, 1.0})
        assert got.tolist() == expected

    def test_duplicates_collapse(self):
        exs = [make_example(["a", "b", "c"], [0.5, 0.5, 0.5], {0})]
        assert critical_thresholds(exs).tolist() == [0.0, 0.5, 1.0]

    def test_risk_constant_between_candidates(self):
        # risk only steps where the cutoff crosses an observed score
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, 5)
        grid = critical_thresholds(ds.examples)
        for left, right in zip(grid[:-1], grid[1:]):
            mid = (left + right) / 2.0
            assert empirical_risk(ds.examples, mid) == empirical_risk(ds.examples, float(left))

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            critical_thresholds([])


class TestCalibrateExact:
    def test_hand_worked_case(self):
        # four singleton-truth examples; the bound 0.3 - 0.7/4 = 0.125 forces
        # every example covered, so lambda must reach the weakest score 0.2
        exs = [
            make_example(["a"], [s], {0}, qid=f"q{i}")
            for i, s in enumerate([0.9, 0.7, 0.6, 0.2])
        ]
        res = calibrate_exact(exs, alpha=0.3)
        assert res.lambda_hat == 1.0 - 0.2
        assert res.feasible
        assert res.mode == "exact"
        assert res.n == 4
        assert res.grid_size is None

    def test_infimum_property_on_random_data(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            ds = random_dataset(rng, int(rng.integers(2, 20)))
            alpha = float(rng.uniform(0.05, 0.95))
            res = calibrate_exact(ds.examples, alpha)
            bound = adjusted_bound(alpha, len(ds.examples))
            if res.feasible:
                assert brute_risk(ds.examples, res.lambda_hat) <= bound
                # nothing strictly below lambda_hat clears the bound
                for lam in critical_thresholds(ds.examples):
                    if lam < res.lambda_hat:
                        assert brute_risk(ds.examples, float(lam)) > bound
            else:
                assert res.lambda_hat == 1.0
                assert brute_risk(ds.examples, 1.0) > bound

    def test_agrees_with_fine_grid_scan(self):
        rng = np.random.default_rng(42)
        grid = np.linspace(0.0, 1.0, 20001)
        for _ in range(10):
            ds = random_dataset(rng, int(rng.integers(2, 12)))
            alpha = float(rng.uniform(0.1, 0.9))
            res = calibrate_exact(ds.examples, alpha)
            lam_scan, feas_scan = brute_first_feasible(ds.examples, alpha, grid)
            assert res.feasible == feas_scan
            if res.feasible:
                # the scan lands at or just above the exact infimum
                assert 0.0 <= lam_scan - res.lambda_hat <= grid[1] - grid[0] + 1e-12

    def test_infeasible_small_sample(self):
        ex = make_example(["a"], [0.5], {0})
        res = calibrate_exact([ex], alpha=0.3)
        assert res.adjusted_bound == pytest.approx(0.3 - 0.7)
        assert not res.feasible
        assert res.lambda_hat == 1.0

    def test_perfect_scores_need_no_slack(self):
        exs = [make_example(["a", "b"], [1.0, 0.0], {0}, qid=f"q{i}") for i in range(10)]
        res = calibrate_exact(exs, alpha=0.2)
        assert res.lambda_hat == 0.0
        assert res.feasible

    def test_scorer_id_recorded(self):
        ex = make_example(["a"], [1.0], {0})
        res = calibrate_exact([ex], alpha=0.9, scorer_id="constant(value=1.0)")
        assert res.scorer_id == "constant(value=1.0)"


class TestCalibrateGrid:
    def test_matches_linear_scan_on_random_grids(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            ds = random_dataset(rng, int(rng.integers(2, 15)))
            alpha = float(rng.uniform(0.05, 0.95))
            size = int(rng.integers(2, 60))
            grid = np.unique(np.append(rng.uniform(0, 1, size=size), 1.0))
            res = calibrate_grid(ds.examples, alpha, grid=grid)
            lam_scan, feas_scan = brute_first_feasible(ds.examples, alpha, grid)
            assert res.feasible == feas_scan
            assert res.lambda_hat == lam_scan
            assert res.grid_size == len(grid)
            assert res.mode == "grid"

    def test_equals_exact_on_critical_grid(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            ds = random_dataset(rng, int(rng.integers(2, 15)))
            alpha = float(rng.uniform(0.05, 0.95))
            grid = critical_thresholds(ds.examples)
            g = calibrate_grid(ds.examples, alpha, grid=grid)
            e = calibrate_exact(ds.examples, alpha)
            assert g.lambda_hat == e.lambda_hat
            assert g.feasible == e.feasible

    def test_default_grid_overshoots_exact_by_at_most_one_step(self):
        rng = np.random.default_rng(53)
        step = 1.0 / 1000
        for _ in range(10):
            ds = random_dataset(rng, 20)
            res_g = calibrate_grid(ds.examples, alpha=0.4)
            res_e = calibrate_exact(ds.examples, alpha=0.4)
            if res_g.feasible and res_e.feasible:
                assert res_g.lambda_hat >= res_e.lambda_hat
                assert res_g.lambda_hat - res_e.lambda_hat <= step + 1e-12

    def test_infeasible_reports_lambda_one(self):
        ex = make_example(["a"], [0.5], {0})
        res = calibrate_grid([ex], alpha=0.2)
        assert not res.feasible
        assert res.lambda_hat == 1.0

    @pytest.mark.parametrize(
        "grid",
        [
            [0.5, 0.2, 1.0],
            [0.0, 0.5],
            [-0.1, 0.5, 1.0],
            [0.3, 0.3, 1.0],
        ],
    )
    def test_bad_grids_rejected(self, grid):
        ex = make_example(["a"], [0.5], {0})
        with pytest.raises(ValueError):
            calibrate_grid([ex], alpha=0.5, grid=grid)

    def test_uniform_grid_shape(self):
        g = uniform_grid(11)
        assert g[0] == 0.0 and g[-1] == 1.0 and len(g) == 11
        with pytest.raises(ValueError, match="size"):
            uniform_grid(1)


class TestRiskCurve:
    def test_matches_empirical_risk_pointwise(self):
        rng = np.random.default_rng(61)
        ds = random_dataset(rng, 8)
        curve = risk_curve(ds.examples, grid=uniform_grid(21))
        for t, r, n in curve.rows():
            assert n == 8
            # mean over a matrix axis may differ from the column mean by one ulp
            assert r == pytest.approx(empirical_risk(ds.examples, t), abs=1e-12)

    def test_rejects_increasing_risks(self):
        with pytest.raises(ValueError, match="non-increasing"):
            RiskCurve(thresholds=(0.0, 1.0), risks=(0.1, 0.2), n=1)

    def test_rejects_nonzero_risk_at_one(self):
        with pytest.raises(ValueError, match="exactly 0"):
            RiskCurve(thresholds=(0.0, 1.0), risks=(0.5, 0.5), n=1)

    def test_rejects_unsorted_thresholds(self):
        with pytest.raises(ValueError, match="ascending"):
            RiskCurve(thresholds=(0.5, 0.2), risks=(0.5, 0.1), n=1)

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError, match="non-empty"):
            RiskCurve(thresholds=(), risks=(), n=1)
        with pytest.raises(ValueError, match="equal length"):
            RiskCurve(thresholds=(0.0, 1.0), risks=(0.0,), n=1)


class TestOneStepServesAll:
    """A built RiskStep stands in for its calibration set everywhere."""

    def test_step_gives_the_same_results(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            arrays = random_dataset(rng, int(rng.integers(1, 15)))
            step = RiskStep(arrays)
            grid = uniform_grid(51)
            for alpha in (0.1, 0.3, 0.6):
                assert calibrate_exact(step, alpha) == calibrate_exact(arrays, alpha)
                assert calibrate_grid(step, alpha, grid=grid) == \
                    calibrate_grid(arrays, alpha, grid=grid)
            assert risk_curve(step, grid) == risk_curve(arrays, grid)

    def test_calibrate_command_builds_one_step(self, tmp_path, monkeypatch):
        from tokencover import calibrate as calibrate_module, cli
        from tokencover.core import write_dataset

        built = []

        class CountingStep(RiskStep):
            def __init__(self, examples):
                built.append(1)
                super().__init__(examples)

        monkeypatch.setattr(cli, "RiskStep", CountingStep)
        monkeypatch.setattr(calibrate_module, "RiskStep", CountingStep)
        data = tmp_path / "data.jsonl"
        write_dataset(random_dataset(np.random.default_rng(3), 20), data)
        for mode in ("exact", "grid"):
            built.clear()
            code = cli.main(["calibrate", "--dataset", str(data), "--alpha", "0.3",
                             "--mode", mode, "--out", str(tmp_path / "c.json"),
                             "--curve-out", str(tmp_path / "curve.csv")])
            assert code == cli.EXIT_OK
            assert len(built) == 1


class TestCalibrationResultSerialization:
    def test_round_trip(self):
        res = CalibrationResult(
            lambda_hat=0.75,
            alpha=0.2,
            n=100,
            adjusted_bound=0.192,
            feasible=True,
            mode="grid",
            grid_size=1001,
            scorer_id="uniform_random(seed=3)",
        )
        assert CalibrationResult.from_dict(res.to_dict()) == res

    def test_round_trip_with_nones(self):
        res = CalibrationResult(
            lambda_hat=1.0,
            alpha=0.1,
            n=2,
            adjusted_bound=-0.35,
            feasible=False,
            mode="exact",
        )
        assert CalibrationResult.from_dict(res.to_dict()) == res


def tie_prone_examples(rng, n):
    """Scores on a 0.01 lattice and truth sizes 3-6, so that exact risks
    often land on the rational bound alpha - (1 - alpha)/n."""
    examples = []
    for i in range(n):
        t = int(rng.integers(3, 7))
        k = t + int(rng.integers(0, 4))
        scores = np.round(rng.random(k), 2).tolist()
        truth = rng.choice(k, size=t, replace=False).tolist()
        examples.append(make_example([f"t{j}" for j in range(k)], scores, truth, qid=f"q{i}"))
    return examples


def fraction_first_feasible(examples, alpha):
    """First critical threshold whose exact risk is at most the float bound
    taken as a rational; membership is the float test s >= 1 - lam. Risks are
    counted in integer units of 1/(60 n), 60 being a multiple of every truth
    size 3-6. Also says whether a risk next to the answer sat on the bound."""
    n = len(examples)
    limit = Fraction(adjusted_bound(alpha, n)) * 60 * n
    truth = np.array([ex.scores.values[j] for ex in examples for j in ex.explanation.indices])
    units = np.array([60 // len(ex.explanation) for ex in examples
                      for _ in ex.explanation.indices], dtype=np.int64)
    lams = critical_thresholds(examples)
    missed = (truth[None, :] < (1.0 - lams)[:, None]).astype(np.int64) @ units
    tie = False
    for lam, m in zip(lams, missed):
        tie = tie or abs(int(m) - limit) < Fraction(60 * n, 10**12)
        if int(m) <= limit:
            return float(lam), True, tie
    return 1.0, False, tie


def like_calibrate_large(rng, n):
    """k cycles 8-16 with round(0.4 k) truth positions (sizes 3-6); scores
    are 1 on truth and 0 elsewhere plus N(0, 0.3^2) noise, clamped."""
    examples = []
    for i in range(n):
        k = 8 + i % 9
        truth = rng.choice(k, size=round(0.4 * k), replace=False).tolist()
        base = np.zeros(k)
        base[truth] = 1.0
        scores = np.clip(base + 0.3 * rng.standard_normal(k), 0.0, 1.0).tolist()
        examples.append(make_example([f"t{j}" for j in range(k)], scores, truth, qid=f"q{i}"))
    return examples


class TestOneDecisionAtTies:
    def test_exact_and_grid_match_fraction_brute_force(self):
        rng = np.random.default_rng(1500)
        alphas = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5)
        exact_ties = 0
        for i in range(1500):
            n = (20, 50, 100, 200)[i % 4]
            examples = tie_prone_examples(rng, n)
            alpha = float(rng.choice(alphas))
            lam, feasible, tie = fraction_first_feasible(examples, alpha)
            exact = calibrate_exact(examples, alpha)
            assert (exact.lambda_hat, exact.feasible) == (lam, feasible), i
            on_critical = calibrate_grid(examples, alpha, grid=critical_thresholds(examples))
            assert (on_critical.lambda_hat, on_critical.feasible) == (lam, feasible), i
            exact_ties += tie
        # the data must actually put risks on the bound for this to test ties
        assert exact_ties >= 20

    def test_risk_equal_to_bound_is_feasible(self):
        # 3,996 of 20,000 truth tokens missed at lambda = 1 - 0.9: the exact
        # risk is 3996 / 5 / 4000 = 999/5000 = 0.2 - 0.8/4000, the bound
        n = 4000
        examples = [
            make_example(["a", "b", "c", "d", "e"], [0.25 if i < 3996 else 0.9] + [0.9] * 4,
                         range(5), qid=f"q{i}")
            for i in range(n)
        ]
        bound = adjusted_bound(0.2, n)
        assert Fraction(3996, 5 * n) <= Fraction(bound)
        assert abs(empirical_risk(examples, 1.0 - 0.9) - bound) < 1e-12
        for res in (calibrate_exact(examples, 0.2),
                    calibrate_grid(examples, 0.2, grid=critical_thresholds(examples))):
            assert res.feasible and res.lambda_hat == 1.0 - 0.9


class TestLinearMemory:
    def test_exact_calibration_peak_memory_at_n_4000(self):
        examples = like_calibrate_large(np.random.default_rng(4000), 4000)
        tracemalloc.start()
        try:
            calibrate_exact(examples, 0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_risk_curve_ends_at_exact_zero(self):
        examples = like_calibrate_large(np.random.default_rng(4001), 4000)
        assert risk_curve(examples).risks[-1] == 0.0
