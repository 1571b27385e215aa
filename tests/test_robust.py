"""Perturbation balls, robust scores, and certified robust sets.

The brute-force oracle here enumerates the full product of per-position
synonym sets and filters by substitution count, which is independent of the
production enumeration (combinations of positions times alternative
choices), so agreement between the two is meaningful.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tokencover.calibrate import CalibrationResult
from tokencover.core import GroundTruthExplanation, ImportanceScores, TokenizedQuestion
from tokencover.robust import (
    _SCORE_CHUNK,
    BallBudgetError,
    BallSpec,
    RobustUncertaintySet,
    SynonymLexicon,
    _candidate_pairs,
    _fold,
    _superset_holds,
    auto_ball_mode,
    ball_size,
    build_robust_set,
    enumerate_ball,
    evaluate_pairs,
    evaluate_robust,
    inject_noise,
    load_lexicon,
    robust_scores,
)
from tokencover.scorer import (
    ConstantScorer,
    OracleNoiseScorer,
    ScorerError,
    UniformRandomScorer,
)
from tokencover.sets import _kept, _set_stats, build_set

from conftest import TableScorer


def q(tokens, qid="q0"):
    return TokenizedQuestion(id=qid, tokens=tuple(tokens))


def group_lexicon(*groups):
    """Lexicon from disjoint synonym groups; symmetric by construction."""
    entries = {}
    for g in groups:
        for tok in g:
            entries[tok] = list(g)
    return SynonymLexicon(entries=entries)


def brute_ball(tokens, lexicon, d):
    """All token tuples within substitution distance d, via product + filter."""
    per_pos = [sorted(lexicon.synonyms(t)) for t in tokens]
    out = []
    for combo in itertools.product(*per_pos):
        if sum(a != b for a, b in zip(combo, tokens)) <= d:
            out.append(combo)
    return out


def brute_robust_table(tokens, lexicon, d, score_by_member):
    """Max plain score per (position, token) over ball members carrying it."""
    best = {}
    for member in brute_ball(tokens, lexicon, d):
        values = score_by_member[member]
        for j, tok in enumerate(member):
            key = (j, tok)
            if key not in best or values[j] > best[key]:
                best[key] = values[j]
    return best


def random_ball_instance(rng, k_max=4, d_max=2, group_max=3):
    """A random question, disjoint-group lexicon, radius, and table scorer."""
    k = int(rng.integers(1, k_max + 1))
    groups = []
    tokens = []
    for j in range(k):
        size = int(rng.integers(1, group_max + 1))
        group = [f"g{j}_{i}" for i in range(size)]
        groups.append(group)
        tokens.append(group[int(rng.integers(0, size))])
    lex = group_lexicon(*groups)
    d = int(rng.integers(0, d_max + 1))
    members = brute_ball(tuple(tokens), lex, k)  # whole product space
    table = {m: tuple(float(v) for v in rng.uniform(0, 1, size=k)) for m in members}
    return q(tokens), lex, d, table


def calib(lam, scorer_id=None):
    return CalibrationResult(
        lambda_hat=lam,
        alpha=0.2,
        n=50,
        adjusted_bound=0.184,
        feasible=True,
        mode="exact",
        scorer_id=scorer_id,
    )


class TestLexicon:
    def test_symmetric_input_needs_no_repair(self, recwarn):
        lex = group_lexicon(["a", "b"], ["c"])
        assert len(recwarn) == 0
        assert lex.synonyms("a") == frozenset({"a", "b"})
        assert lex.synonyms("c") == frozenset({"c"})

    def test_unknown_token_is_its_own_singleton(self):
        lex = group_lexicon(["a", "b"])
        assert lex.synonyms("zzz") == frozenset({"zzz"})

    def test_self_inclusion_repaired_with_warning(self):
        with pytest.warns(UserWarning, match="repaired"):
            lex = SynonymLexicon(entries={"a": ["b"], "b": ["a", "b"]})
        assert "a" in lex.synonyms("a")

    def test_symmetry_repaired_both_ways(self):
        with pytest.warns(UserWarning, match="symmetry"):
            lex = SynonymLexicon(entries={"a": ["a", "b"]})
        assert lex.synonyms("b") == frozenset({"a", "b"})
        assert lex.synonyms("a") == frozenset({"a", "b"})

    def test_symmetry_repaired_into_an_existing_entry(self):
        with pytest.warns(UserWarning, match="added 'a' to 'b' for symmetry"):
            lex = SynonymLexicon(entries={"a": ["a", "b"], "b": ["b"]})
        assert lex.synonyms("b") == frozenset({"a", "b"})

    def test_frozenset_with_non_str_member_is_converted(self, recwarn):
        lex = SynonymLexicon(entries={"a": frozenset({"a", 1}), "1": frozenset({"1", "a"})})
        assert len(recwarn) == 0
        assert lex.synonyms("a") == frozenset({"a", "1"})

    def test_many_repairs_are_summarized(self):
        entries = {f"t{i}": [f"s{i}"] for i in range(6)}
        with pytest.warns(UserWarning, match=r"\(\+\d+ more\)"):
            SynonymLexicon(entries=entries)

    def test_load_lexicon_round_trip(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text(
            '{"token": "a", "synonyms": ["a", "b"]}\n'
            '{"token": "b", "synonyms": ["a", "b"]}\n',
            encoding="utf-8",
        )
        lex = load_lexicon(path)
        assert lex.synonyms("a") == frozenset({"a", "b"})
        assert len(lex) == 2

    def test_load_lexicon_bad_json_names_line(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"token": "a", "synonyms": ["a"]}\n{oops\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_lexicon(path)

    def test_load_lexicon_missing_field(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"token": "a"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="synonyms"):
            load_lexicon(path)

    def test_load_lexicon_wrong_types(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"token": "a", "synonyms": [1, 2]}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="list of strings"):
            load_lexicon(path)

    def test_load_lexicon_repeated_token_names_both_lines(self, tmp_path):
        # kept as the last line, the repeat would drop "b" without a word
        path = tmp_path / "lex.jsonl"
        path.write_text(
            '{"token": "a", "synonyms": ["a", "b"]}\n'
            '{"token": "c", "synonyms": ["c"]}\n'
            '{"token": "a", "synonyms": ["a", "c"]}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"line 3: duplicate token 'a', first given on line 1"):
            load_lexicon(path)


class TestBallSpec:
    def test_negative_radius(self):
        with pytest.raises(ValueError, match="d must be"):
            BallSpec(d=-1)

    def test_budget_floor(self):
        with pytest.raises(ValueError, match="budget"):
            BallSpec(d=1, enumeration_budget=0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            BallSpec(d=1, mode="psychic")


class TestBallSize:
    def test_three_positions_two_alternatives_each_d2(self):
        # e_0 + e_1 + e_2 of (2, 2, 2): 1 + 6 + 12
        lex = group_lexicon(["a", "a1", "a2"], ["b", "b1", "b2"], ["c", "c1", "c2"])
        assert ball_size(q(["a", "b", "c"]), lex, BallSpec(d=2)) == 19

    def test_no_synonyms_means_singleton_ball(self):
        lex = group_lexicon(["x"])
        assert ball_size(q(["p", "q", "r"]), lex, BallSpec(d=3)) == 1

    def test_d_zero_is_singleton(self):
        lex = group_lexicon(["a", "b", "c"])
        assert ball_size(q(["a", "a"]), lex, BallSpec(d=0)) == 1

    def test_huge_d_is_capped_by_the_perturbable_positions(self):
        # sums up to d = 10**12 would need terabytes; two positions can change
        lex = group_lexicon(["a", "a1", "a2"], ["b", "b1"])
        question = q(["a", "x", "b"])
        assert ball_size(question, lex, BallSpec(d=10**12)) == \
            ball_size(question, lex, BallSpec(d=len(question.tokens))) == 6

    def test_matches_brute_count(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            question, lex, d, _ = random_ball_instance(rng)
            expected = len(brute_ball(question.tokens, lex, d))
            assert ball_size(question, lex, BallSpec(d=d)) == expected

    def test_matches_enumeration_length(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            question, lex, d, _ = random_ball_instance(rng)
            members = list(enumerate_ball(question, lex, BallSpec(d=d)))
            assert len(members) == ball_size(question, lex, BallSpec(d=d))


class TestEnumerateBall:
    def test_question_itself_comes_first(self):
        lex = group_lexicon(["a", "b"])
        members = list(enumerate_ball(q(["a", "a"]), lex, BallSpec(d=1)))
        assert members[0].tokens == ("a", "a")

    def test_members_unique_and_match_brute(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            question, lex, d, _ = random_ball_instance(rng)
            members = [m.tokens for m in enumerate_ball(question, lex, BallSpec(d=d))]
            assert len(members) == len(set(members))
            assert set(members) == set(brute_ball(question.tokens, lex, d))

    def test_members_keep_id_and_prompt(self):
        lex = group_lexicon(["a", "b"])
        question = TokenizedQuestion(id="qq", tokens=("a",), prompt="inst")
        for member in enumerate_ball(question, lex, BallSpec(d=1)):
            assert member.id == "qq"
            assert member.prompt == "inst"

    def test_order_is_deterministic(self):
        lex = group_lexicon(["a", "b", "c"], ["x", "y"])
        question = q(["a", "x", "a"])
        first = [m.tokens for m in enumerate_ball(question, lex, BallSpec(d=2))]
        second = [m.tokens for m in enumerate_ball(question, lex, BallSpec(d=2))]
        assert first == second

    def test_budget_enforced_before_iteration(self):
        lex = group_lexicon([f"w{i}" for i in range(10)])
        question = q(["w0", "w1", "w2", "w3"])
        with pytest.raises(BallBudgetError, match="over the enumeration budget"):
            enumerate_ball(question, lex, BallSpec(d=4, enumeration_budget=50))


class TestRobustScores:
    def test_matches_brute_force_exact_mode(self):
        rng = np.random.default_rng(81)
        for _ in range(40):
            question, lex, d, table = random_ball_instance(rng)
            scorer = TableScorer(table)
            got = robust_scores(question, lex, BallSpec(d=d), scorer)
            expected = brute_robust_table(question.tokens, lex, d, table)
            assert got == expected

    def test_dominates_plain_score_at_observed_tokens(self):
        rng = np.random.default_rng(82)
        for _ in range(25):
            question, lex, d, table = random_ball_instance(rng)
            scorer = TableScorer(table)
            robust = robust_scores(question, lex, BallSpec(d=d), scorer)
            plain = scorer.score_question(question).values
            for j, tok in enumerate(question.tokens):
                assert robust[(j, tok)] >= plain[j]

    def test_d_zero_equals_plain_scores(self):
        lex = group_lexicon(["a", "b", "c"])
        question = q(["a", "b"])
        table = {("a", "b"): (0.3, 0.7)}
        got = robust_scores(question, lex, BallSpec(d=0), TableScorer(table))
        assert got == {(0, "a"): 0.3, (1, "b"): 0.7}

    def test_coordinatewise_refuses_context_dependent_scorer(self):
        lex = group_lexicon(["a", "b"])
        scorer = TableScorer({("a",): (0.5,)})
        with pytest.raises(ScorerError, match="context-free"):
            robust_scores(q(["a"]), lex, BallSpec(d=1, mode="coordinatewise"), scorer)

    def test_coordinatewise_equals_exact_for_context_free_scorer(self):
        rng = np.random.default_rng(83)
        for trial in range(25):
            question, lex, d, _ = random_ball_instance(rng)
            scorer = OracleNoiseScorer(
                sigma=0.5, seed=trial, truth_by_id={"q0": {0}}
            )
            exact = robust_scores(question, lex, BallSpec(d=d, mode="exact"), scorer)
            coord = robust_scores(
                question, lex, BallSpec(d=d, mode="coordinatewise"), scorer
            )
            assert exact == coord

    def test_auto_mode_is_coordinatewise_iff_context_free(self):
        oracle = OracleNoiseScorer(sigma=0.5, seed=1, truth_by_id={"q0": {0}})
        assert auto_ball_mode(oracle) == "coordinatewise"
        assert auto_ball_mode(TableScorer({("a",): (0.5,)})) == "exact"


class TestCandidatePairs:
    LEX = group_lexicon(["a", "b", "c"], ["x", "y"])
    QUESTIONS = [q(["a", "z", "x"], "q0"), q(["z"], "q1"), q(["y", "c"], "q2")]

    @pytest.mark.parametrize("d, want", [
        (0, ([0, 0, 0, 1, 2, 2], [0, 1, 2, 0, 0, 1], ["a", "z", "x", "z", "y", "c"])),
        (1, ([0, 0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 2], [0, 0, 0, 1, 2, 2, 0, 0, 0, 1, 1, 1],
             ["a", "b", "c", "z", "x", "y", "z", "x", "y", "a", "b", "c"])),
    ])
    def test_lists_every_synonym_per_position_with_its_owner(self, d, want):
        assert _candidate_pairs(self.QUESTIONS, self.LEX, d) == want

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_many_questions_are_the_one_question_lists_concatenated(self, d):
        want = ([], [], [])
        for i, question in enumerate(self.QUESTIONS):
            owners, positions, candidates = _candidate_pairs([question], self.LEX, d)
            assert owners == [0] * len(positions) == [0] * len(candidates)
            want[0].extend([i] * len(positions))
            want[1].extend(positions)
            want[2].extend(candidates)
        assert _candidate_pairs(self.QUESTIONS, self.LEX, d) == want
        assert _candidate_pairs([], self.LEX, d) == ([], [], [])


def per_member_robust_scores(question, lexicon, spec, scorer):
    """Exact mode as one ``score_question`` call per ball member and one dict
    update per member position, for checking the chunked fold against."""
    best = {}
    for member in enumerate_ball(question, lexicon, spec):
        values = scorer.score_question(member).values
        for j, tok in enumerate(member.tokens):
            key = (j, tok)
            prev = best.get(key)
            if prev is None or values[j] > prev:
                best[key] = values[j]
    return best


def four_scorers(seed, table):
    """A fresh scorer of each kind whose exact mode folds through ``score_many``."""
    return [TableScorer(table), ConstantScorer(0.37), UniformRandomScorer(seed),
            OracleNoiseScorer(sigma=0.5, seed=seed, truth_by_id={"q0": {0}})]


class TestChunkedExactScores:
    def assert_matches_per_member(self, question, lex, d, table, rng):
        spec, seed = BallSpec(d=d), int(rng.integers(0, 1000))
        for scorer, reference in zip(four_scorers(seed, table), four_scorers(seed, table)):
            got = robust_scores(question, lex, spec, scorer)
            want = per_member_robust_scores(question, lex, spec, reference)
            assert {k: v.hex() for k, v in got.items()} == \
                {k: float(v).hex() for k, v in want.items()}, scorer.identity
            assert scorer.calls == reference.calls == ball_size(question, lex, spec)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_random_instances_match_per_member_loop(self, d):
        rng = np.random.default_rng(400 + d)
        for _ in range(12):
            question, lex, _, table = random_ball_instance(rng, k_max=5)
            self.assert_matches_per_member(question, lex, d, table, rng)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_repeated_token_and_position_without_synonyms(self, d):
        # "a" sits at positions 0 and 2; "z" has no synonyms
        lex = group_lexicon(["a", "b", "c"], ["y", "x"])
        question = q(["a", "z", "a", "x", "b"])
        rng = np.random.default_rng(410 + d)
        table = {m: tuple(rng.uniform(0, 1, size=5)) for m in brute_ball(question.tokens, lex, 5)}
        self.assert_matches_per_member(question, lex, d, table, rng)

    def test_ball_of_several_chunks(self):
        groups = [[f"t{j}_{i}" for i in range(4)] for j in range(12)]
        lex = group_lexicon(*groups)
        question = q([g[0] for g in groups])
        spec = BallSpec(d=3)
        assert ball_size(question, lex, spec) > 1.5 * _SCORE_CHUNK
        rng = np.random.default_rng(420)
        table = {m.tokens: tuple(rng.uniform(0, 1, size=12))
                 for m in enumerate_ball(question, lex, spec)}
        self.assert_matches_per_member(question, lex, 3, table, rng)


class TestBuildRobustSet:
    def test_thresholds_table_inclusively(self):
        lex = group_lexicon(["a", "b"])
        table = {("a",): (0.5,), ("b",): (0.6,)}
        got = build_robust_set(q(["a"]), lex, BallSpec(d=1), TableScorer(table), calib(0.5))
        # cutoff 0.5: both candidates clear it, score-at-cutoff included
        assert got.pairs() == {(0, "a"), (0, "b")}
        assert [it.score for it in got.items] == [0.5, 0.6]
        assert got.ball_size == 2
        assert got.lambda_used == 0.5

    def test_items_sorted_by_position_then_token(self):
        rng = np.random.default_rng(91)
        question, lex, d, table = random_ball_instance(rng)
        got = build_robust_set(question, lex, BallSpec(d=d), TableScorer(table), calib(1.0))
        keys = [(it.position, it.token) for it in got.items]
        assert keys == sorted(keys)

    def test_identity_mismatch_warns(self):
        lex = group_lexicon(["a"])
        scorer = TableScorer({("a",): (1.0,)})
        with pytest.warns(UserWarning, match="does not match"):
            build_robust_set(q(["a"]), lex, BallSpec(d=0), scorer, calib(0.5, scorer_id="x"))

    def test_identity_mismatch_strict_raises(self):
        lex = group_lexicon(["a"])
        scorer = TableScorer({("a",): (1.0,)})
        with pytest.raises(ScorerError, match="does not match"):
            build_robust_set(
                q(["a"]), lex, BallSpec(d=0), scorer, calib(0.5, scorer_id="x"), strict=True
            )

    def test_supersets_plain_set_under_injected_noise(self):
        # the clean question sits inside the noisy question's own ball, so
        # every (position, token) the plain set keeps, the robust set keeps
        rng = np.random.default_rng(92)
        for trial in range(25):
            question, lex, d, table = random_ball_instance(rng, d_max=2)
            if d == 0:
                continue
            noisy = inject_noise(question, lex, d, seed=trial)
            scorer = TableScorer(table)
            lam = float(rng.uniform(0, 1))
            plain = build_set(question, scorer.score_question(question), lam)
            robust = build_robust_set(noisy, lex, BallSpec(d=d), scorer, calib(lam))
            assert frozenset(plain.tokens) <= robust.pairs()


class TestInjectNoise:
    def test_deterministic_per_seed(self):
        lex = group_lexicon(["a", "b", "c"], ["x", "y"])
        question = q(["a", "x", "b"])
        assert inject_noise(question, lex, 2, seed=5) == inject_noise(question, lex, 2, seed=5)

    def test_stays_within_ball(self):
        rng = np.random.default_rng(101)
        for trial in range(40):
            question, lex, d, _ = random_ball_instance(rng)
            noisy = inject_noise(question, lex, d, seed=trial)
            assert noisy.tokens in set(brute_ball(question.tokens, lex, d))
            assert noisy.id == question.id
            assert noisy.prompt == question.prompt

    def test_substitutes_exactly_min_d_perturbable(self):
        rng = np.random.default_rng(102)
        for trial in range(40):
            question, lex, d, _ = random_ball_instance(rng)
            perturbable = sum(
                1 for t in question.tokens if len(lex.synonyms(t)) > 1
            )
            noisy = inject_noise(question, lex, d, seed=trial)
            changed = sum(a != b for a, b in zip(question.tokens, noisy.tokens))
            assert changed == min(d, perturbable)

    def test_d_zero_returns_question_unchanged(self):
        lex = group_lexicon(["a", "b"])
        question = q(["a", "a"])
        assert inject_noise(question, lex, 0, seed=1) == question

    def test_negative_d_rejected(self):
        lex = group_lexicon(["a"])
        with pytest.raises(ValueError, match="d must be"):
            inject_noise(q(["a"]), lex, -1, seed=0)


class TestEvaluateRobust:
    def make_set(self, pairs, qid="q0"):
        from tokencover.robust import RobustItem

        items = tuple(RobustItem(position=j, token=t, score=1.0) for j, t in sorted(pairs))
        return RobustUncertaintySet(question_id=qid, items=items, lambda_used=0.5, ball_size=1)

    def test_exact_pair_matching(self):
        # a synonym at the right position does not count as coverage
        clean = q(["good", "day"])
        rset = self.make_set({(0, "fine"), (1, "day")})
        got = evaluate_robust(rset, clean, GroundTruthExplanation({0, 1}))
        assert got.covered == 1
        assert got.loss == 0.5

    def test_full_coverage(self):
        clean = q(["good", "day"])
        rset = self.make_set({(0, "good"), (0, "fine"), (1, "day")})
        got = evaluate_robust(rset, clean, GroundTruthExplanation({0, 1}))
        assert got.loss == 0.0
        assert got.n_items == 3
        assert got.n_positions == 2
        assert got.to_dict()["n_items"] == 3

    def test_plain_set_on_noisy_question_misses_substituted_truth(self):
        # the comparator of a robust trial: a plain set built on the noisy
        # question selects the substituted truth position, but holds the
        # synonym there, not the clean token, so that position is missed
        clean = q(["good", "day"])
        noisy = q(["fine", "day"])
        plain = build_set(noisy, ImportanceScores((0.9, 0.9)), 0.5)
        assert plain.indices == {0, 1}
        got = evaluate_pairs(frozenset(plain.tokens), clean, GroundTruthExplanation({0, 1}))
        assert got.covered == 1
        assert got.loss == 0.5
        assert got.n_positions == 2

    def test_truth_pairs_are_positional(self):
        # a repeated token covers only the position that holds it
        clean = q(["same", "same", "other"])
        got = evaluate_pairs(frozenset({(0, "same")}), clean, GroundTruthExplanation({0, 1}))
        assert got.covered == 1
        assert got.truth_size == 2

    def test_id_mismatch_rejected(self):
        rset = self.make_set({(0, "a")}, qid="other")
        with pytest.raises(ValueError, match="belongs to"):
            evaluate_robust(rset, q(["a"]), GroundTruthExplanation({0}))

    def test_empty_truth_rejected(self):
        rset = self.make_set({(0, "a")})
        with pytest.raises(ValueError, match="empty"):
            evaluate_robust(rset, q(["a"]), GroundTruthExplanation(frozenset()))


class TestFlatPairRule:
    """The flat form of ``evaluate_pairs`` that robust trials apply to all
    test questions at once: items folded onto positions with ``_fold`` and
    read with the plain set rule ``_set_stats``, and the superset check."""

    # question, position, token: a hand-built table of two clean questions,
    # q0 = ("good", "day") with truth {0, 1} and q1 = ("big", "cat", "sat")
    # with truth {1}; items are listed out of order on purpose
    ITEMS = [(1, 2, "sat"), (0, 1, "day"), (0, 0, "fine"), (1, 1, "cat"),
             (0, 0, "good"), (1, 1, "dog"), (1, 0, "big")]
    CLEAN = (("good", "day"), ("big", "cat", "sat"))
    TRUTH = ({0, 1}, {1})
    OFFSETS = np.array([0, 2, 5])
    LAM = 0.5

    def columns(self, selected):
        """Flat index, clean flag and score of each item, and the flat truth
        mask; a selected item scores 1 and is kept at ``LAM``, the others 0."""
        flat = np.array([self.OFFSETS[i] + j for i, j, _ in self.ITEMS])
        clean = np.array([tok == self.CLEAN[i][j] for i, j, tok in self.ITEMS])
        score = np.array(selected, dtype=float)
        truth = np.array([j in t for t, tokens in zip(self.TRUTH, self.CLEAN)
                          for j in range(len(tokens))])
        return flat, clean, score, truth

    def stats(self, selected):
        flat, clean, score, truth = self.columns(selected)
        question = np.array([i for i, _, _ in self.ITEMS])
        n_items = [np.count_nonzero(_kept(score[question == i], self.LAM)) for i in range(2)]
        _, n_positions, _ = _set_stats(_fold(flat, score, 5), self.OFFSETS, truth, self.LAM)
        covering = _fold(flat[clean], score[clean], 5)
        kept, _, losses = _set_stats(covering, self.OFFSETS, truth, self.LAM)
        covered = np.add.reduceat(kept & truth, self.OFFSETS[:-1])
        return n_items, n_positions, covered, losses

    def test_matches_set_arithmetic_on_every_selection(self):
        for selected in itertools.product([False, True], repeat=len(self.ITEMS)):
            n_items, n_positions, covered, losses = self.stats(selected)
            for i, tokens in enumerate(self.CLEAN):
                pairs = {(j, tok) for (qi, j, tok), s in zip(self.ITEMS, selected)
                         if s and qi == i}
                hits = len(pairs & {(j, tokens[j]) for j in self.TRUTH[i]})
                assert n_items[i] == len(pairs)
                assert n_positions[i] == len({j for j, _ in pairs})
                assert covered[i] == hits
                assert losses[i] == 1.0 - hits / len(self.TRUTH[i])

    def test_synonym_at_truth_position_covers_nothing(self):
        # q0 keeps only the synonym "fine" at truth position 0; q1 only "dog"
        selected = [tok in ("fine", "dog") for _, _, tok in self.ITEMS]
        _, n_positions, covered, losses = self.stats(selected)
        assert n_positions.tolist() == [1, 1]
        assert covered.tolist() == [0, 0]
        assert losses.tolist() == [1.0, 1.0]

    def test_superset_fails_on_a_missing_or_dropped_clean_pair(self):
        # three questions of two tokens each; the plain set on each clean
        # question keeps both positions
        offsets = np.array([0, 2, 4, 6])
        scores = np.full(6, 0.9)
        # q0 has both clean pairs, q1 has only a synonym at position 1, and
        # q2 has its clean pair at position 0 below the cutoff
        flat = np.array([0, 1, 2, 3, 4, 4, 5])
        clean = np.array([True, True, True, False, True, False, True])
        score = np.array([0.9, 0.8, 0.9, 0.9, 0.2, 0.9, 0.9])
        covering = _fold(flat[clean], score[clean], 6)
        assert _superset_holds(covering, scores, offsets, 0.5).tolist() == [True, False, False]
        # a position the clean plain set does not keep needs no robust pair
        scores[[3, 4]] = 0.1
        assert _superset_holds(covering, scores, offsets, 0.5).tolist() == [True, True, True]
