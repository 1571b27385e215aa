"""Synthetic generator and Monte Carlo coverage experiments."""

from __future__ import annotations

import numpy as np
import pytest

from tokencover.calibrate import calibrate_exact, calibrate_grid
from tokencover.core import ScoredArrays, validate_example
from tokencover.robust import (
    BallSpec,
    auto_ball_mode,
    evaluate_pairs,
    evaluate_robust,
    inject_noise,
    robust_scores,
    threshold_robust_scores,
)
from tokencover.sets import build_set, evaluate
from tokencover.sim import (
    CSV_HEADER,
    CoverageReport,
    SyntheticConfig,
    _derived_seed,
    _run_trial,
    _split_counts,
    generate_synthetic_dataset,
    oracle_scorer,
    run_coverage_experiment,
    summarize,
    synthetic_lexicon,
)

SMALL = SyntheticConfig(n_calibration=30, n_test=20, k_range=(3, 6), seed=7)


class TestSyntheticConfig:
    def test_defaults_are_valid(self):
        cfg = SyntheticConfig()
        assert cfg.n_calibration == 100
        assert cfg.k_range == (8, 16)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_calibration": 0},
            {"n_test": 0},
            {"k_range": (0, 5)},
            {"k_range": (5, 3)},
            {"truth_fraction": 0.0},
            {"truth_fraction": 1.2},
            {"sigma": -0.1},
            {"seed": -1},
            {"synonym_fanout": -1},
            {"d": -2},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticConfig(**kwargs)


class TestGenerateSyntheticDataset:
    def test_size_and_validity(self):
        ds = generate_synthetic_dataset(SMALL)
        assert len(ds.examples) == 50
        kmin, kmax = SMALL.k_range
        for ex in ds.examples:
            assert validate_example(ex) == []
            assert kmin <= len(ex.question.tokens) <= kmax
            assert len(ex.explanation.indices) >= 1

    def test_returns_arrays(self):
        assert type(generate_synthetic_dataset(SMALL)) is ScoredArrays

    def test_deterministic_per_seed(self):
        ds = generate_synthetic_dataset(SMALL)
        assert ds.examples == generate_synthetic_dataset(SMALL).examples
        assert generate_synthetic_dataset(SMALL, seed=8).examples != ds.examples

    def test_oracle_scorer_reproduces_materialized_scores(self):
        ds = generate_synthetic_dataset(SMALL)
        scorer = oracle_scorer(SMALL, ds)
        for ex in ds.examples:
            assert scorer.score_question(ex.question) == ex.scores

    def test_zero_sigma_gives_exact_indicators(self):
        cfg = SyntheticConfig(n_calibration=5, n_test=5, k_range=(3, 4), sigma=0.0, seed=1)
        for ex in generate_synthetic_dataset(cfg).examples:
            for j, v in enumerate(ex.scores.values):
                assert v == (1.0 if j in ex.explanation.indices else 0.0)


class TestSyntheticLexicon:
    def test_fanout_entries_without_repairs(self, recwarn):
        ds = generate_synthetic_dataset(SMALL)
        lex = synthetic_lexicon(ds, fanout=2)
        assert len(recwarn) == 0
        for ex in ds.examples:
            for tok in ex.question.tokens:
                syns = lex.synonyms(tok)
                assert len(syns) == 3
                for alt in syns - {tok}:
                    assert lex.synonyms(alt) == frozenset({alt, tok})

    def test_zero_fanout_is_empty(self):
        ds = generate_synthetic_dataset(SMALL)
        assert len(synthetic_lexicon(ds, fanout=0)) == 0

    def test_negative_fanout_rejected(self):
        ds = generate_synthetic_dataset(SMALL)
        with pytest.raises(ValueError, match="fanout"):
            synthetic_lexicon(ds, fanout=-1)


class TestSingleTrialExperiment:
    def test_plain_trial_fields(self):
        [rep] = run_coverage_experiment(SMALL, [0.3], trials=1)
        assert rep.alpha == 0.3
        assert rep.mode == "exact"
        assert not rep.robust
        assert 0.0 <= rep.mean_lambda <= 1.0
        assert 0.0 <= rep.mean_loss <= 1.0
        assert rep.mean_set_size >= 0.0
        assert rep.comparator_mean_loss is None
        assert rep.superset_rate is None

    def test_robust_trial_populates_extras(self):
        [rep] = run_coverage_experiment(SMALL, [0.3], trials=1, robust=True)
        assert rep.robust
        assert rep.comparator_mean_loss is not None
        assert rep.comparator_mean_set_size is not None
        assert rep.superset_rate is not None
        assert rep.mean_n_items is not None
        # items count pairs, so it can only exceed the position count
        assert rep.mean_n_items >= rep.mean_set_size

    def test_zero_noise_means_zero_loss(self):
        cfg = SyntheticConfig(n_calibration=20, n_test=20, k_range=(3, 5), sigma=0.0, seed=3)
        [rep] = run_coverage_experiment(cfg, [0.3], trials=1)
        assert rep.feasibility_rate == 1.0
        assert rep.mean_lambda == 0.0
        assert rep.mean_loss == 0.0

    def test_grid_mode_overshoots_exact_by_at_most_one_step(self):
        [exact] = run_coverage_experiment(SMALL, [0.3], trials=1, mode="exact")
        [grid] = run_coverage_experiment(SMALL, [0.3], trials=1, mode="grid")
        assert exact.feasibility_rate == grid.feasibility_rate == 1.0
        assert 0.0 <= grid.mean_lambda - exact.mean_lambda <= 1.0 / 1000 + 1e-12
        assert grid.mean_loss <= exact.mean_loss + 1e-12

    def test_unknown_mode_rejected_before_any_data(self, monkeypatch):
        def generate(*args, **kwargs):
            raise AssertionError("a dataset was generated for a bad mode")

        monkeypatch.setattr("tokencover.sim.generate_synthetic_dataset", generate)
        with pytest.raises(ValueError, match="mode must be 'exact' or 'grid', got 'psychic'"):
            run_coverage_experiment(SMALL, [0.3], trials=1, mode="psychic")


class TestRunCoverageExperiment:
    def test_reproducible(self):
        a = run_coverage_experiment(SMALL, [0.3], trials=4)
        b = run_coverage_experiment(SMALL, [0.3], trials=4)
        assert a == b

    def test_single_trial_has_no_se(self):
        [rep] = run_coverage_experiment(SMALL, [0.3], trials=1)
        assert rep.se is None
        assert rep.trials == 1
        assert len(rep.per_trial_losses) == 1

    def test_workers_do_not_change_results(self):
        serial = run_coverage_experiment(SMALL, [0.3], trials=4, workers=1)
        threaded = run_coverage_experiment(SMALL, [0.3], trials=4, workers=4)
        assert serial == threaded

    def test_workers_do_not_change_robust_results(self):
        serial = run_coverage_experiment(SMALL, [0.2, 0.45], trials=5, robust=True)
        pooled = run_coverage_experiment(SMALL, [0.2, 0.45], trials=5, robust=True, workers=2)
        assert serial == pooled

    def test_alpha_sequence_matches_independent_runs(self):
        multi = run_coverage_experiment(SMALL, [0.2, 0.4], trials=3)
        assert isinstance(multi, list)
        for rep in multi:
            [single] = run_coverage_experiment(SMALL, [rep.alpha], trials=3)
            assert rep == single

    def test_mean_loss_respects_alpha(self):
        # light statistical check; the acceptance suite runs the full one
        [rep] = run_coverage_experiment(SyntheticConfig(seed=5), [0.3], trials=30)
        assert rep.feasibility_rate == 1.0
        assert rep.mean_loss <= 0.3 + 3 * rep.se

    def test_lambda_grows_with_noise(self):
        lambdas = []
        for sigma in (0.05, 0.5, 2.0):
            cfg = SyntheticConfig(
                n_calibration=50, n_test=10, k_range=(5, 8), sigma=sigma, seed=13
            )
            [rep] = run_coverage_experiment(cfg, [0.2], trials=5)
            lambdas.append(rep.mean_lambda)
        assert lambdas[0] < lambdas[1] < lambdas[2]

    def test_robust_superset_rate_is_exactly_one(self):
        cfg = SyntheticConfig(n_calibration=30, n_test=15, k_range=(3, 5), seed=9)
        [rep] = run_coverage_experiment(cfg, [0.3], trials=3, robust=True)
        assert rep.superset_rate == 1.0
        assert rep.comparator_mean_loss is not None

    def test_grid_lambda_not_below_exact_at_a_tie(self):
        # a trial whose risk sits on the bound at alpha = 0.1: summed in two
        # float orders, grid once found 0.431 feasible while exact did not
        cfg = SyntheticConfig(n_calibration=100, n_test=100, seed=1875844242)
        [exact] = run_coverage_experiment(cfg, [0.1], trials=1, mode="exact")
        [grid] = run_coverage_experiment(cfg, [0.1], trials=1, mode="grid")
        assert grid.mean_lambda >= exact.mean_lambda

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            run_coverage_experiment(SMALL, [0.3], trials=0)
        with pytest.raises(ValueError, match="alpha"):
            run_coverage_experiment(SMALL, [], trials=1)


class TestAggregation:
    """A report holds, per field, the mean of that field over the trials'
    rows, bit for bit. Nine trials: from eight on, summing the trials in
    another order can change the last bits."""

    PLAIN = {"mean_lambda", "feasibility_rate", "mean_loss", "mean_set_size"}
    ROBUST = {"comparator_mean_loss", "comparator_mean_set_size", "superset_rate", "mean_n_items"}

    @pytest.mark.parametrize("robust", [False, True])
    def test_report_is_the_mean_of_the_trial_rows(self, robust):
        trials, alphas = 9, [0.2, 0.45]
        reports = run_coverage_experiment(SMALL, alphas, trials=trials, robust=robust)
        trial_rows = [_run_trial(SMALL, alphas, "exact", robust, _derived_seed(SMALL.seed, t))
                      for t in range(trials)]
        for i, rep in enumerate(reports):
            rows = [tr[i] for tr in trial_rows]
            assert set(rows[0]) == (self.PLAIN | self.ROBUST if robust else self.PLAIN)
            for key in rows[0]:
                assert getattr(rep, key) == np.mean([row[key] for row in rows]), key
            losses = np.array([row["mean_loss"] for row in rows])
            assert rep.per_trial_losses == tuple(losses.tolist())
            assert rep.se == losses.std(ddof=1) / np.sqrt(trials)
            if not robust:
                assert all(getattr(rep, key) is None for key in self.ROBUST)


class TestCoverageReportShape:
    def test_per_trial_losses_must_match_trials(self):
        with pytest.raises(ValueError, match="one entry per trial"):
            CoverageReport(
                alpha=0.2,
                mode="exact",
                robust=False,
                trials=3,
                mean_loss=0.1,
                se=0.01,
                mean_set_size=4.0,
                mean_lambda=0.5,
                feasibility_rate=1.0,
                per_trial_losses=(0.1,),
            )

    def test_per_trial_losses_must_be_probabilities(self):
        with pytest.raises(ValueError, match="outside"):
            CoverageReport(
                alpha=0.2,
                mode="exact",
                robust=False,
                trials=1,
                mean_loss=0.1,
                se=None,
                mean_set_size=4.0,
                mean_lambda=0.5,
                feasibility_rate=1.0,
                per_trial_losses=(1.5,),
            )

    def test_to_dict_round_trips_floats(self):
        [rep] = run_coverage_experiment(SMALL, [0.25], trials=2)
        d = rep.to_dict()
        assert d["alpha"] == 0.25
        assert d["per_trial_losses"] == list(rep.per_trial_losses)


class TestSummarize:
    def test_header_and_sorting(self):
        reps = [
            *run_coverage_experiment(SMALL, [0.4], trials=2),
            *run_coverage_experiment(SMALL, [0.2], trials=2),
        ]
        text = summarize(reps)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("0.2,exact,false,2,")
        assert lines[2].startswith("0.4,exact,false,2,")

    def test_floats_round_trip_through_repr(self):
        [rep] = run_coverage_experiment(SMALL, [0.3], trials=2)
        row = summarize([rep]).strip().split("\n")[1].split(",")
        assert float(row[4]) == rep.mean_loss
        assert float(row[5]) == rep.se

    def test_missing_se_is_empty_field(self):
        [rep] = run_coverage_experiment(SMALL, [0.3], trials=1)
        row = summarize([rep]).strip().split("\n")[1].split(",")
        assert row[5] == ""


class TestRobustComparatorSeesNoise:
    def test_comparator_loss_above_alpha(self):
        # The plain set on the noisy question must lose coverage to the
        # substitutions: a trial that never injects noise would pass every
        # robust check while testing nothing.
        config = SyntheticConfig(n_calibration=100, n_test=100, seed=0)
        losses = np.array([
            _run_trial(config, [0.2], "exact", True, seed)[0]["comparator_mean_loss"]
            for seed in range(40)
        ])
        se = losses.std(ddof=1) / np.sqrt(losses.size)
        assert losses.mean() > 0.2 + 3 * se, (losses.mean(), se)


class TestPlainTrialMatchesPerQuestionPath:
    """A plain trial thresholds the test split's materialized scores in one
    pass; its numbers must be bit-equal to re-scoring every test question
    with the oracle and evaluating its set one question at a time."""

    @pytest.mark.parametrize("mode", ["exact", "grid"])
    @pytest.mark.parametrize("trial_seed", [0, 17, 2024, 2**40 + 3])
    def test_bit_equal(self, mode, trial_seed):
        config = SyntheticConfig(n_calibration=100, n_test=100, seed=0)
        dataset = generate_synthetic_dataset(config, seed=trial_seed)
        oracle = oracle_scorer(config, dataset, seed=trial_seed)
        cal, test = _split_counts(config, dataset, trial_seed)
        calibrate = calibrate_exact if mode == "exact" else calibrate_grid
        alphas = (0.1, 0.2, 0.45, 0.8)
        for alpha, res in zip(alphas, _run_trial(config, alphas, mode, False, trial_seed)):
            assert res["mean_lambda"] == calibrate(cal.examples, alpha).lambda_hat
            reports = [
                evaluate(build_set(ex.question, oracle.score_question(ex.question),
                                   res["mean_lambda"]), ex.explanation)
                for ex in test.examples
            ]
            assert res["mean_loss"] == np.mean([r.loss for r in reports])
            assert res["mean_set_size"] == np.mean([r.set_size for r in reports])


class TestRobustTrialMatchesPerQuestionPath:
    """A robust trial thresholds one flat table of every test question's
    robust scores per alpha; its numbers must be bit-equal to building and
    evaluating each question's robust set, comparator and superset check one
    question at a time, with the noisy question re-scored by the oracle."""

    @pytest.mark.parametrize("mode", ["exact", "grid"])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    @pytest.mark.parametrize("fanout", [0, 1, 2])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_bit_equal(self, d, fanout, sigma, mode):
        config = SyntheticConfig(n_calibration=40, n_test=40, k_range=(1, 3), sigma=sigma,
                                 synonym_fanout=fanout, d=d, seed=0)
        for trial_seed in (_derived_seed(0, 0), _derived_seed(0, 1)):
            dataset = generate_synthetic_dataset(config, seed=trial_seed)
            cal, test = _split_counts(config, dataset, trial_seed)
            oracle = oracle_scorer(config, test, seed=trial_seed)
            lexicon = synthetic_lexicon(test, fanout)
            spec = BallSpec(d=d, mode=auto_ball_mode(oracle))
            noise_rng = np.random.default_rng(np.random.SeedSequence(entropy=[trial_seed, 3]))
            perturbed = []
            for ex in test.examples:
                noisy = inject_noise(ex.question, lexicon, d, int(noise_rng.integers(2**63)))
                perturbed.append((ex, noisy, robust_scores(noisy, lexicon, spec, oracle)))
            alphas = (0.1, 0.2, 0.45, 0.8)
            for alpha, res in zip(alphas, _run_trial(config, alphas, mode, True, trial_seed)):
                calibrate = calibrate_exact if mode == "exact" else calibrate_grid
                lam = calibrate(cal.examples, alpha).lambda_hat
                assert res["mean_lambda"] == lam
                evals, comparator, superset = [], [], []
                for ex, noisy, table in perturbed:
                    q, truth = ex.question, ex.explanation
                    rset = threshold_robust_scores(noisy, table, lam, 0)
                    evals.append(evaluate_robust(rset, q, truth))
                    noisy_set = build_set(noisy, oracle.score_question(noisy), lam)
                    comparator.append(evaluate_pairs(frozenset(noisy_set.tokens), q, truth))
                    clean_pairs = frozenset(build_set(q, ex.scores, lam).tokens)
                    superset.append(1.0 if clean_pairs <= rset.pairs() else 0.0)
                assert res["mean_loss"] == np.mean([e.loss for e in evals])
                assert res["mean_set_size"] == np.mean([e.n_positions for e in evals])
                assert res["mean_n_items"] == np.mean([e.n_items for e in evals])
                assert res["comparator_mean_loss"] == np.mean([c.loss for c in comparator])
                assert res["comparator_mean_set_size"] == np.mean(
                    [c.n_positions for c in comparator])
                assert res["superset_rate"] == np.mean(superset)
