"""Set construction, prediction at a calibrated threshold, and evaluation."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from tokencover.calibrate import CalibrationResult
from tokencover.core import (
    GroundTruthExplanation,
    ImportanceScores,
    ScoredArrays,
    TokenizedQuestion,
)
from tokencover import sets as sets_module
from tokencover.scorer import (_SCORE_CHUNK, ConstantScorer, OracleNoiseScorer, ScorerError,
                               ScorerSpec, UniformRandomScorer, make_scorer)
from tokencover.sets import _score_batch, _set_stats, build_set, evaluate, predict

from conftest import make_example, random_example


def q(tokens, qid="q0"):
    return TokenizedQuestion(id=qid, tokens=tuple(tokens))


CHUNK_TRUTH = {"q0": {0}, "q1": {1}, "q2": {0, 2}, "q3": {3}, "q4": {0}}


def calib(lam, scorer_id=None):
    return CalibrationResult(
        lambda_hat=lam,
        alpha=0.2,
        n=10,
        adjusted_bound=0.12,
        feasible=True,
        mode="exact",
        scorer_id=scorer_id,
    )


class TestBuildSet:
    def test_cutoff_is_inclusive(self):
        # score exactly at 1 - lambda stays in
        got = build_set(q(["a", "b", "c"]), ImportanceScores((0.7, 0.69, 0.71)), lam=0.3)
        assert got.indices == frozenset({0, 2})

    def test_lambda_one_keeps_everything(self):
        got = build_set(q(["a", "b"]), ImportanceScores((0.0, 1.0)), lam=1.0)
        assert got.indices == frozenset({0, 1})

    def test_lambda_zero_keeps_only_certain_tokens(self):
        got = build_set(q(["a", "b", "c"]), ImportanceScores((1.0, 0.999, 0.0)), lam=0.0)
        assert got.indices == frozenset({0})

    def test_tokens_pair_positions_with_strings(self):
        got = build_set(q(["alpha", "beta", "gamma"]), ImportanceScores((0.9, 0.1, 0.8)), lam=0.5)
        assert got.tokens == ((0, "alpha"), (2, "gamma"))
        assert got.lambda_used == 0.5
        assert got.question_id == "q0"
        assert len(got) == 2

    def test_sets_nest_in_lambda(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            ex = random_example(rng)
            lams = sorted(rng.uniform(0, 1, size=2))
            small = build_set(ex.question, ex.scores, float(lams[0]))
            large = build_set(ex.question, ex.scores, float(lams[1]))
            assert small.indices <= large.indices

    @pytest.mark.parametrize("lam", [-0.01, 1.01])
    def test_lambda_out_of_range(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            build_set(q(["a"]), ImportanceScores((0.5,)), lam)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            build_set(q(["a", "b"]), ImportanceScores((0.5,)), 0.5)


class TestPredict:
    def test_uses_calibrated_threshold(self):
        scorer = make_scorer(
            ScorerSpec(kind="oracle_noise", parameters={"sigma": 0.0}),
            truth_by_id={"q0": {0, 2}},
        )
        got = predict(q(["a", "b", "c"]), scorer, calib(0.5))
        assert got.indices == frozenset({0, 2})
        assert got.lambda_used == 0.5

    def test_identity_mismatch_warns_by_default(self):
        scorer = ConstantScorer(1.0)
        with pytest.warns(UserWarning, match="does not match"):
            got = predict(q(["a"]), scorer, calib(0.5, scorer_id="uniform_random(seed=1)"))
        assert got.indices == frozenset({0})

    def test_identity_mismatch_raises_in_strict_mode(self):
        scorer = ConstantScorer(1.0)
        with pytest.raises(ScorerError, match="does not match"):
            predict(q(["a"]), scorer, calib(0.5, scorer_id="other"), strict=True)

    def test_matching_identity_is_silent(self):
        scorer = ConstantScorer(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            predict(q(["a"]), scorer, calib(0.5, scorer_id=scorer.identity), strict=True)

    def test_unstamped_calibration_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            predict(q(["a"]), ConstantScorer(1.0), calib(0.5), strict=True)


class TestPredictBatch:
    """The batch scoring that `predict` runs through: one ``score_many`` call
    per chunk; only a remote scorer's misses are fetched on threads."""

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_preserves_order_and_matches_serial(self, http_scorer_server, workers):
        # questions repeat (every token pair occurs in up to three of them),
        # and some are in the memo before the batch starts
        url, _ = http_scorer_server
        questions = [q([str(i % 7), str(50 + i % 7)], qid=f"q{i}") for i in range(20)]
        cached = questions[::5]

        def remote(n):
            spec = ScorerSpec(kind="remote", parameters={"endpoint": url, "retries": 0})
            scorer = make_scorer(spec, workers=n)
            for x in cached:
                scorer.score_question(x)
            return scorer

        serial = remote(1)
        want = np.array([v for x in questions for v in serial.score_question(x).values])
        scorer = remote(workers)
        got = _score_batch(questions, scorer, calib(0.6), strict=False)
        assert got.tobytes() == want.tobytes()
        assert (scorer.calls, scorer.cache_hits) == (serial.calls, serial.cache_hits) == (7, 17)
        sets = [build_set(x, ImportanceScores(tuple(sc.tolist())), 0.6)
                for x, sc in zip(questions, np.split(got, len(questions)))]
        assert sets == [predict(x, scorer, calib(0.6)) for x in questions]
        assert [s.question_id for s in sets] == [f"q{i}" for i in range(20)]

    def test_empty_input(self):
        got = _score_batch([], ConstantScorer(0.5), calib(0.5), strict=False)
        assert got.tolist() == []

    @pytest.mark.parametrize("make", [
        lambda: UniformRandomScorer(seed=3),
        lambda: OracleNoiseScorer(sigma=0.4, seed=3, truth_by_id=CHUNK_TRUTH),
        lambda: OracleNoiseScorer(sigma=0.0, seed=3, truth_by_id=CHUNK_TRUTH),
        lambda: ConstantScorer(0.25),
    ], ids=["uniform_random", "oracle_noise", "oracle_noise-sigma0", "constant"])
    def test_chunks_equal_per_question_scores(self, make, monkeypatch):
        # five questions of mixed lengths in chunks of two: two full chunks
        # and a partial last one
        monkeypatch.setattr(sets_module, "_SCORE_CHUNK", 2)
        questions = [q(["a", "b", "c", "d"][: 1 + i % 4], qid=f"q{i}") for i in range(5)]
        scorer, reference = make(), make()
        sizes = []
        score_many = scorer.score_many
        monkeypatch.setattr(scorer, "score_many", lambda chunk: sizes.append(len(chunk))
                            or score_many(chunk))
        got = _score_batch(questions, scorer, calib(0.5), strict=False)
        want = [v for x in questions for v in reference.score_question(x).values]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        assert sizes == [2, 2, 1]
        assert scorer.calls == reference.calls == len(questions)

    def test_more_questions_than_one_chunk(self):
        questions = [q([f"w{i}", "x", f"v{i % 7}"], qid=f"q{i}") for i in range(_SCORE_CHUNK + 3)]
        truth = {x.id: {i % 3} for i, x in enumerate(questions)}
        scorer, reference = (OracleNoiseScorer(sigma=0.3, seed=5, truth_by_id=truth)
                             for _ in range(2))
        got = _score_batch(questions, scorer, calib(0.5), strict=False)
        want = [v for x in questions for v in reference.score_question(x).values]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        assert scorer.calls == len(questions)


class TestEvaluate:
    def test_report_fields(self):
        got = build_set(q(["a", "b", "c"]), ImportanceScores((0.9, 0.1, 0.9)), lam=0.5)
        report = evaluate(got, GroundTruthExplanation({0, 1}))
        assert report.question_id == "q0"
        assert report.set_size == 2
        assert report.truth_size == 2
        assert report.covered == 1
        assert report.loss == 0.5
        assert report.to_dict()["covered"] == 1

    def test_question_id_check(self):
        got = build_set(q(["a"]), ImportanceScores((1.0,)), lam=0.5)
        report = evaluate(got, GroundTruthExplanation({0}), question_id="q0")
        assert report.loss == 0.0
        with pytest.raises(ValueError, match="belongs to"):
            evaluate(got, GroundTruthExplanation({0}), question_id="q1")


class TestSetStats:
    """The flat set rule agrees with build_set and evaluate question by question."""

    def test_matches_build_set_and_evaluate(self):
        rng = np.random.default_rng(11)
        examples = [random_example(rng, qid=f"q{i}") for i in range(40)]
        arrays = ScoredArrays.from_examples(examples)
        for lam in (0.0, 0.2, 0.5, 0.8, 1.0, *rng.uniform(0, 1, size=5)):
            kept, sizes, losses = _set_stats(
                arrays.scores, arrays.offsets, arrays.truth, float(lam)
            )
            sets = [build_set(ex.question, ex.scores, float(lam)) for ex in examples]
            reports = [evaluate(s, ex.explanation) for s, ex in zip(sets, examples)]
            assert arrays.positions(kept) == [sorted(s.indices) for s in sets]
            assert sizes.tolist() == [r.set_size for r in reports]
            assert losses.tolist() == [r.loss for r in reports]
            # the covered count the loss was made from
            covered = [round((1.0 - x) * r.truth_size) for x, r in zip(losses.tolist(), reports)]
            assert covered == [r.covered for r in reports]

    def test_ties_are_kept(self):
        arrays = ScoredArrays.from_examples([make_example("abc", (0.7, 0.69, 0.71), {1, 2})])
        kept, sizes, losses = _set_stats(arrays.scores, arrays.offsets, arrays.truth, 0.3)
        assert kept.tolist() == [True, False, True]
        assert (sizes.tolist(), losses.tolist()) == ([2], [0.5])

    def test_empty_question_is_refused(self):
        # reduceat would hand the empty question its neighbour's first score
        scores = np.array([0.9, 0.1])
        truth = np.array([True, True])
        with pytest.raises(ValueError, match="at least one token"):
            _set_stats(scores, np.array([0, 0, 2]), truth, 0.5)

    def test_empty_truth_is_refused(self):
        with pytest.raises(ValueError, match="explanation is empty"):
            _set_stats(np.array([0.9, 0.1]), np.array([0, 2]), np.array([False, False]), 0.5)

    @pytest.mark.parametrize("lam", [-0.01, 1.01])
    def test_lambda_out_of_range(self, lam):
        arrays = ScoredArrays.from_examples([make_example("a", (0.5,), {0})])
        with pytest.raises(ValueError, match="lambda"):
            _set_stats(arrays.scores, arrays.offsets, arrays.truth, lam)
