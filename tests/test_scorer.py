"""Scorer kinds, cache keys, the disk cache, and the remote HTTP client."""

from __future__ import annotations

import hashlib
import math
import os
import socket
import sys
from statistics import NormalDist

import numpy as np
import pytest

from tokencover import scorer as scorer_module
from tokencover.calibrate import CalibrationResult
from tokencover.core import ImportanceScores, TokenizedQuestion
from tokencover.scorer import (
    ConstantScorer,
    OracleNoiseScorer,
    RemoteScorer,
    ScoreCache,
    ScorerError,
    ScorerSpec,
    TableScorer,
    UniformRandomScorer,
    _normal_deviates,
    _oracle_scores,
    _ScorerBase,
    _unit_uniforms,
    cache_key,
    make_scorer,
    oracle_noise_score,
    truth_map,
)
from tokencover.sets import _score_batch


def q(tokens, qid="q0", prompt="p"):
    return TokenizedQuestion(id=qid, tokens=tuple(tokens), prompt=prompt)


UNSTAMPED = CalibrationResult(lambda_hat=0.5, alpha=0.2, n=10, adjusted_bound=0.12,
                              feasible=True, mode="exact")


class TestCacheKey:
    def test_stable_for_same_content(self):
        assert cache_key("p", ["a", "b"], "s") == cache_key("p", ["a", "b"], "s")

    def test_sensitive_to_every_component(self):
        base = cache_key("p", ["a", "b"], "s")
        assert cache_key("P", ["a", "b"], "s") != base
        assert cache_key("p", ["a", "c"], "s") != base
        assert cache_key("p", ["b", "a"], "s") != base
        assert cache_key("p", ["a", "b"], "s2") != base

    def test_token_boundaries_matter(self):
        assert cache_key("p", ["ab", "c"], "s") != cache_key("p", ["a", "bc"], "s")


class TestOracleNoise:
    def test_zero_sigma_is_exact_indicator(self):
        scores = oracle_noise_score({0, 2}, ("a", "b", "c"), sigma=0.0, seed=9)
        assert scores.values == (1.0, 0.0, 1.0)

    def test_deterministic_for_fixed_seed(self):
        toks = ("w1", "w2", "w3", "w4")
        a = oracle_noise_score({1}, toks, sigma=0.2, seed=7)
        b = oracle_noise_score({1}, toks, sigma=0.2, seed=7)
        assert a == b
        c = oracle_noise_score({1}, toks, sigma=0.2, seed=8)
        assert a != c

    def test_single_truth_token_lands_near_one(self):
        # clamped at 1 from above; below 1 only by a few sigma
        sigma = 0.1
        got = oracle_noise_score({0}, ("word",), sigma=sigma, seed=123).values[0]
        assert 1.0 - 3 * sigma <= got <= 1.0

    def test_values_always_clamped(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            k = int(rng.integers(1, 8))
            toks = tuple(f"t{int(v)}" for v in rng.integers(0, 100, size=k))
            vals = oracle_noise_score({0}, toks, sigma=5.0, seed=trial).values
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_score_is_context_free(self):
        # editing one token must not move any other position's score
        scorer = OracleNoiseScorer(sigma=0.4, seed=3, truth_by_id={"q0": {1}})
        base = scorer.score_question(q(["a", "b", "c"])).values
        edited = scorer.score_question(q(["ZZZ", "b", "c"])).values
        assert edited[1] == base[1]
        assert edited[2] == base[2]

    def test_one_pair_score_tokens_matches_score_question(self):
        scorer = OracleNoiseScorer(sigma=0.4, seed=3, truth_by_id={"q0": {0, 2}})
        question = q(["a", "b", "c"])
        full = scorer.score_question(question).values
        for j, tok in enumerate(question.tokens):
            assert scorer.score_tokens(question, [j], [tok]) == [full[j]]

    @pytest.mark.parametrize("make", [
        lambda: OracleNoiseScorer(sigma=0.4, seed=3, truth_by_id={"q0": {0, 2}}),
        lambda: ConstantScorer(0.25),
    ])
    def test_score_tokens_is_one_call_per_pair(self, make):
        question = q(["a", "b", "c"])
        positions, tokens = [0, 0, 1, 2, 2], ["a", "a~1", "b", "c", "zz"]
        batch, single = make(), make()
        got = batch.score_tokens(question, positions, tokens)
        assert got == [single.score_tokens(question, [j], [t])[0]
                       for j, t in zip(positions, tokens)]
        assert batch.calls == single.calls == len(positions)

    def test_unknown_question_id_raises(self):
        scorer = OracleNoiseScorer(sigma=0.1, seed=0, truth_by_id={"q0": {0}})
        with pytest.raises(ScorerError, match="no ground truth"):
            scorer.score_question(q(["a"], qid="other"))

    def test_truth_index_out_of_range_raises(self):
        with pytest.raises(ScorerError, match="outside"):
            oracle_noise_score({5}, ("a", "b"), sigma=0.0, seed=0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ScorerError, match="sigma"):
            oracle_noise_score({0}, ("a",), sigma=-0.1, seed=0)


def reference_oracle_token(in_truth, sigma, seed, j, token):
    """The per-token oracle formula, one sha256 and one inv_cdf per token,
    that the batched kernel must reproduce bit for bit."""
    v = 1.0 if in_truth else 0.0
    if sigma > 0:
        h = hashlib.sha256(f"{seed}|{j}|{token}".encode("utf-8")).digest()
        v += sigma * NormalDist().inv_cdf((int.from_bytes(h[:8], "big") + 0.5) / 2.0**64)
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


class TestOracleKernel:
    @pytest.mark.parametrize("sigma", [0.0, 0.3, 5.0])
    def test_bit_equal_to_per_token_formula(self, sigma):
        rng = np.random.default_rng(int(sigma * 10) + 11)
        alphabet = list("abwxyz0189~|-") + ["é", "ß", "日", "本", "🙂", "\u0301", " "]
        n = 3000
        tokens = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 9)))) for _ in range(n)]
        positions = rng.integers(0, 101, size=n).tolist()
        in_truth = (rng.random(n) < 0.5).tolist()
        seed = int(rng.integers(0, 2**63))
        got = np.array(_oracle_scores(in_truth, sigma, seed, positions, tokens))
        want = np.array([reference_oracle_token(m, sigma, seed, j, tok)
                         for m, j, tok in zip(in_truth, positions, tokens)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if sigma == 5.0:
            truth = np.array(in_truth)
            # clamped at both ends: truth positions down to 0, others up to 1
            assert (got[truth] == 0.0).any() and (got[~truth] == 1.0).any()

    def test_empty_batch(self):
        assert _oracle_scores([], 0.3, 1, [], []) == []

    def test_unpacking_matches_integer_formula_at_rounding_edges(self):
        prefixes = [0, 1, 2**53 + 1, 2**63, 2**63 + 1024, 2**63 + 1025, 2**63 + 3072,
                    2**64 - 2049, 2**64 - 2048, 2**64 - 1025, 2**64 - 1024, 2**64 - 1]
        digests = b"".join(p.to_bytes(8, "big") + bytes(range(24)) for p in prefixes)
        assert _unit_uniforms(digests).tolist() == [(p + 0.5) / 2.0**64 for p in prefixes]

    def test_all_ones_digest_gives_a_finite_deviate(self):
        # the uncapped draw rounds to exactly 1.0, where inv_cdf raises
        assert _unit_uniforms(b"\xff" * 32).tolist() == [1.0]
        (z,) = _normal_deviates(b"\xff" * 32)
        assert math.isfinite(z) and z > 8.0

    def test_cap_keeps_every_draw_below_one(self):
        prefixes = [0, 2**63, 2**64 - 2049, 2**64 - 1025]
        digests = b"".join(p.to_bytes(8, "big") + bytes(24) for p in prefixes)
        assert _normal_deviates(digests) == [NormalDist().inv_cdf((p + 0.5) / 2.0**64)
                                             for p in prefixes]


class TestUniformRandom:
    def test_deterministic_and_in_range(self):
        scorer = UniformRandomScorer(seed=5)
        question = q(["a", "b", "c"])
        first = scorer.score_question(question)
        second = scorer.score_question(question)
        assert first == second
        assert all(0.0 <= v <= 1.0 for v in first.values)

    def test_context_dependent(self):
        # editing token 0 redraws the scores at the other positions
        scorer = UniformRandomScorer(seed=5)
        base = scorer.score_question(q(["a", "b", "c"])).values
        edited = scorer.score_question(q(["X", "b", "c"])).values
        assert base[1:] != edited[1:]
        assert not scorer.context_free

    def test_score_tokens_refused(self):
        with pytest.raises(ScorerError, match="context-free"):
            UniformRandomScorer(seed=1).score_tokens(q(["a"]), [0], ["a"])

    def test_matches_the_per_position_formula(self):
        # the score at j is the unit uniform of sha256("seed|cache_key|j")
        question = q([f"t{j}" for j in range(12)], prompt='naïve "p"')
        key = cache_key(question.prompt, question.tokens, "uniform_random(seed=5)")
        want = [(int.from_bytes(hashlib.sha256(f"5|{key}|{j}".encode()).digest()[:8], "big")
                 + 0.5) / 2.0**64 for j in range(12)]
        assert UniformRandomScorer(seed=5).score_question(question).values == tuple(want)


# Mixed token counts and prompts with quotes, backslashes and non-ASCII text;
# questions 0 and 3 share a prompt.
BATCH = [
    q(["a", "b", "c"], qid="q0", prompt='say "why"'),
    q(["x"], qid="q1", prompt="back\\slash \\n"),
    q(["é", "ß", "日本", "a b", '"'], qid="q2", prompt="naïve — café ✓"),
    q(["c", "a"], qid="q3", prompt='say "why"'),
    q(["\\", "tab\t", "z", "y", "x", "w", "v"], qid="q4", prompt=""),
]
BATCH_TRUTH = {"q0": {0, 2}, "q1": {0}, "q2": {1, 4}, "q3": {1}, "q4": {3}}


def uniform_reference(question, seed=11):
    """The uniform scorer's rule written out: the unit uniform of the first 8
    bytes of sha256("seed|cache_key|j"), read big-endian."""
    key = cache_key(question.prompt, question.tokens, f"uniform_random(seed={seed})")
    return [(int.from_bytes(hashlib.sha256(f"{seed}|{key}|{j}".encode()).digest()[:8], "big")
             + 0.5) / 2.0**64 for j in range(len(question.tokens))]


class TestScoreMany:
    @pytest.mark.parametrize("make, reference", [
        (lambda: UniformRandomScorer(seed=11), uniform_reference),
        (lambda: OracleNoiseScorer(sigma=0.4, seed=11, truth_by_id=BATCH_TRUTH),
         lambda x: oracle_noise_score(BATCH_TRUTH[x.id], x.tokens, 0.4, 11).values),
        (lambda: OracleNoiseScorer(sigma=0.0, seed=11, truth_by_id=BATCH_TRUTH),
         lambda x: oracle_noise_score(BATCH_TRUTH[x.id], x.tokens, 0.0, 11).values),
    ], ids=["uniform_random", "oracle_noise", "oracle_noise-sigma0"])
    def test_bit_equal_to_score_question(self, make, reference):
        one, many = make(), make()
        want = [v for question in BATCH for v in one.score_question(question).values]
        got = many.score_many(BATCH)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        # score_question derives from score_many, so both are also checked
        # against the rule written out apart from the scorer
        ref = [v for question in BATCH for v in reference(question)]
        assert got.tobytes() == np.array(ref, dtype=np.float64).tobytes()
        assert many.calls == one.calls == len(BATCH)
        assert many.score_many(BATCH[1:3]).size == 6
        assert many.calls == len(BATCH) + 2

    @pytest.mark.parametrize("bad, message", [
        (q(["a"], qid="other"), "oracle scorer has no ground truth for question id 'other'"),
        (q(["a", "b"], qid="q1"), "ground-truth index 5 outside [0, 2)"),
    ], ids=["unknown-id", "index-out-of-range"])
    def test_oracle_refuses_like_score_question_before_hashing(self, bad, message, monkeypatch):
        truth = {"q0": {0}, "q1": {5}}
        with pytest.raises(ScorerError) as one:
            OracleNoiseScorer(sigma=0.3, seed=1, truth_by_id=truth).score_question(bad)
        hashed = []
        monkeypatch.setattr(scorer_module, "_oracle_scores", lambda *args: hashed.append(args))
        with pytest.raises(ScorerError) as many:
            OracleNoiseScorer(sigma=0.3, seed=1, truth_by_id=truth).score_many([q(["a"]), bad])
        assert str(many.value) == str(one.value) == message
        assert hashed == []

    def test_base_rejects_a_short_score_vector(self):
        class Short(_ScorerBase):
            identity = "short"

            def score_question(self, question):
                self.calls += 1
                return ImportanceScores((0.5,) * (len(question.tokens) - 1))

        scorer = Short()
        with pytest.raises(ScorerError, match="scores length 2 does not match 3 tokens"):
            scorer.score_many([q(["a", "b", "c"])])

    def test_base_concatenates_in_question_order(self):
        scorer = TableScorer({("a", "b"): (0.1, 0.9), ("c",): (0.4,)})
        got = scorer.score_many([q(["c"]), q(["a", "b"]), q(["c"])])
        assert got.tolist() == [0.4, 0.1, 0.9, 0.4]
        assert scorer.calls == 3


class TestConstantAndTable:
    def test_constant_scores(self):
        scorer = ConstantScorer(0.5)
        assert scorer.score_question(q(["a", "b"])).values == (0.5, 0.5)
        assert scorer.score_tokens(q(["a", "b"]), [1], ["zzz"]) == [0.5]

    def test_constant_out_of_range_rejected(self):
        with pytest.raises(ScorerError):
            ConstantScorer(1.5)

    def test_table_lookup(self):
        scorer = TableScorer({("a", "b"): (0.1, 0.9)})
        assert scorer.score_question(q(["a", "b"])).values == (0.1, 0.9)

    def test_table_missing_entry(self):
        scorer = TableScorer({("a",): (0.1,)})
        with pytest.raises(ScorerError, match="no entry"):
            scorer.score_question(q(["b"]))

    def test_table_length_mismatch_rejected(self):
        scorer = TableScorer({("a", "b"): (0.1,)})
        with pytest.raises(ScorerError, match="1 scores for 2 tokens"):
            scorer.score_question(q(["a", "b"]))


class TestScoreCacheDisk:
    def test_round_trip(self, tmp_path):
        cache = ScoreCache(tmp_path / "cache")
        cache.put("k1", (0.25, 0.5))
        assert cache.get("k1") == (0.25, 0.5)
        assert cache.get("missing") is None

    def test_corrupt_entry_degrades_with_warning(self, tmp_path):
        cache = ScoreCache(tmp_path)
        (tmp_path / "bad.json").write_text("{oops", encoding="utf-8")
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache.get("bad") is None

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("no rename")

        cache = ScoreCache(tmp_path)
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.warns(UserWarning, match="write failed"):
            cache.put("k", (0.5,))
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_root_degrades_with_warning(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        # a file where the directory should be: every I/O path degrades
        with pytest.warns(UserWarning):
            cache = ScoreCache(blocker)
            cache.put("k", (0.5,))


class TestRemoteScorer:
    def test_posts_prompt_and_tokens(self, http_scorer_server):
        url, state = http_scorer_server
        state["response"] = {"scores": [0.2, 0.8]}
        scorer = RemoteScorer(url, retries=0)
        got = scorer.score_question(q(["a", "b"], prompt="inst"))
        assert got.values == (0.2, 0.8)
        assert state["bodies"][0] == {"prompt": "inst", "tokens": ["a", "b"]}

    def test_api_key_header_from_environment(self, http_scorer_server, monkeypatch):
        url, state = http_scorer_server
        state["response"] = {"scores": [0.5]}
        monkeypatch.setenv("SCORER_API_KEY", "sekrit")
        RemoteScorer(url, retries=0).score_question(q(["a"]))
        assert state["auth"][0] == "Bearer sekrit"

    def test_retries_with_backoff_then_succeeds(self, http_scorer_server):
        url, state = http_scorer_server
        state["response"] = {"scores": [0.5]}
        state["fail_first"] = 2
        scorer = RemoteScorer(url, retries=3, backoff=0.01)
        assert scorer.score_question(q(["a"])).values == (0.5,)
        assert state["requests"] == 3

    def test_gives_up_after_retries(self, http_scorer_server):
        url, state = http_scorer_server
        state["response"] = {"scores": [0.5]}
        state["fail_first"] = 99
        scorer = RemoteScorer(url, retries=1, backoff=0.01)
        with pytest.raises(ScorerError, match="after 2 attempts"):
            scorer.score_question(q(["a"]))

    @pytest.mark.parametrize("status", [429, 503])
    def test_retries_rate_limits_and_server_errors(self, http_scorer_server, status):
        url, state = http_scorer_server
        state["response"] = {"scores": [0.5]}
        state.update(fail_first=1, fail_status=status)
        assert RemoteScorer(url, retries=3, backoff=0.01).score_question(q(["a"])).values == (0.5,)
        assert state["requests"] == 2

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_other_client_errors_fail_fast(self, http_scorer_server, status):
        url, state = http_scorer_server
        state.update(fail_first=99, fail_status=status)
        with pytest.raises(ScorerError, match=f"HTTP {status}"):
            RemoteScorer(url, retries=3, backoff=0.01).score_question(q(["a"]))
        assert state["requests"] == 1

    def test_non_json_body_fails_fast(self, http_scorer_server):
        url, state = http_scorer_server
        state["raw"] = b"<html>not json</html>"
        with pytest.raises(ScorerError, match="not JSON"):
            RemoteScorer(url, retries=3, backoff=0.01).score_question(q(["a"]))
        assert state["requests"] == 1

    def test_timeout_retries(self, http_scorer_server):
        url, state = http_scorer_server
        state["hang"] = 0.2
        with pytest.raises(ScorerError, match="after 2 attempts"):
            RemoteScorer(url, timeout=0.05, retries=1, backoff=0.01).score_question(q(["a"]))
        assert state["requests"] == 2

    def test_connection_refused_retries(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        scorer = RemoteScorer(f"http://127.0.0.1:{port}/score", retries=1, backoff=0.01)
        with pytest.raises(ScorerError, match="after 2 attempts"):
            scorer.score_question(q(["a"]))

    def test_non_http_endpoint_rejected(self):
        with pytest.raises(ScorerError, match="not an http"):
            RemoteScorer("file:///etc/hostname")

    def test_length_mismatch_rejected(self, http_scorer_server):
        url, state = http_scorer_server
        state["response"] = {"scores": [0.5]}
        with pytest.raises(ScorerError, match="1 scores for 2 tokens"):
            RemoteScorer(url, retries=0).score_question(q(["a", "b"]))

    def test_out_of_range_scores_rejected(self, http_scorer_server):
        url, state = http_scorer_server
        state["response"] = {"scores": [1.7]}
        with pytest.raises(ScorerError, match="outside"):
            RemoteScorer(url, retries=0).score_question(q(["a"]))

    def test_missing_scores_field_rejected(self, http_scorer_server):
        url, state = http_scorer_server
        state["response"] = {"values": [0.5]}
        with pytest.raises(ScorerError, match="without 'scores'"):
            RemoteScorer(url, retries=0).score_question(q(["a"]))

    def test_disk_cache_avoids_network(self, http_scorer_server, tmp_path):
        url, state = http_scorer_server
        state["response"] = {"scores": [0.4]}
        question = q(["a"])
        first = RemoteScorer(url, retries=0, cache_dir=tmp_path)
        first.score_question(question)
        assert state["requests"] == 1
        # a fresh client with the same cache dir never touches the server
        second = RemoteScorer(url, retries=0, cache_dir=tmp_path)
        assert second.score_question(question).values == (0.4,)
        assert state["requests"] == 1
        assert second.cache_hits == 1
        assert second.calls == 0

    def test_memoizes_within_instance(self, http_scorer_server):
        url, state = http_scorer_server
        state["response"] = {"scores": [0.4]}
        scorer = RemoteScorer(url, retries=0)
        scorer.score_question(q(["a"]))
        scorer.score_question(q(["a"]))
        assert state["requests"] == 1
        assert scorer.cache_hits == 1

    def test_threaded_batch_fetches_only_misses_in_input_order(self, http_scorer_server):
        url, state = http_scorer_server
        questions = [q([str(i), str(50 + i)], qid=f"q{i}") for i in range(10)]
        scorer = RemoteScorer(url, retries=0, workers=2)
        for x in questions[::3]:
            scorer.score_question(x)
        state["bodies"].clear()
        got = _score_batch(questions, scorer, UNSTAMPED, strict=False)
        assert got.tolist() == [v for i in range(10) for v in (i / 100, (50 + i) / 100)]
        misses = [list(x.tokens) for i, x in enumerate(questions) if i % 3]
        assert sorted(b["tokens"] for b in state["bodies"]) == misses
        assert (scorer.calls, scorer.cache_hits) == (10, 4)

    def test_threaded_batch_fetches_repeated_miss_once(self, http_scorer_server):
        url, state = http_scorer_server
        questions = [q(["7"], qid=f"q{i}") for i in range(3)]
        scorer = RemoteScorer(url, retries=0, workers=2)
        got = _score_batch(questions, scorer, UNSTAMPED, strict=False)
        assert got.tolist() == [0.07] * 3
        assert state["requests"] == 1
        assert (scorer.calls, scorer.cache_hits) == (1, 2)

    def test_threaded_counts_hold_under_contention(self, monkeypatch):
        # more threads than cores and a short switch interval: a lost update
        # to the memo or the counters would break the counts
        scorer = RemoteScorer("http://127.0.0.1:9/score", retries=0, workers=8)
        monkeypatch.setattr(scorer, "_request", lambda x: [int(t) / 100 for t in x.tokens])
        questions = [q([str(i % 50)], qid=f"q{i}") for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = scorer.score_many(questions)
        finally:
            sys.setswitchinterval(interval)
        assert got.tolist() == [i % 50 / 100 for i in range(400)]
        assert (scorer.calls, scorer.cache_hits) == (50, 350)


class TestMakeScorer:
    def test_unknown_kind(self):
        with pytest.raises(ScorerError, match="unknown scorer kind"):
            make_scorer(ScorerSpec(kind="psychic"))

    def test_unknown_parameter(self):
        with pytest.raises(ScorerError, match="unknown parameter"):
            make_scorer(ScorerSpec(kind="constant", parameters={"value": 0.5, "typo": 1}))

    def test_constant_requires_value(self):
        with pytest.raises(ScorerError, match="value"):
            make_scorer(ScorerSpec(kind="constant"))

    def test_oracle_requires_truth(self):
        with pytest.raises(ScorerError, match="truth"):
            make_scorer(ScorerSpec(kind="oracle_noise", parameters={"sigma": 0.1}))

    def test_identities_distinguish_configurations(self):
        a = make_scorer(ScorerSpec(kind="constant", parameters={"value": 0.5}))
        b = make_scorer(ScorerSpec(kind="constant", parameters={"value": 0.7}))
        c = make_scorer(ScorerSpec(kind="uniform_random", seed=1))
        d = make_scorer(ScorerSpec(kind="uniform_random", seed=2))
        assert len({a.identity, b.identity, c.identity, d.identity}) == 4

    def test_oracle_spec_scores_truth_positions(self):
        spec = ScorerSpec(kind="oracle_noise", parameters={"sigma": 0.0}, seed=1)
        scorer = make_scorer(spec, truth_by_id={"x": {1}})
        got = scorer.score_question(q(["a", "b"], qid="x"))
        assert got.values == (0.0, 1.0)

    def test_truth_map_from_dataset(self):
        from conftest import random_dataset

        ds = random_dataset(np.random.default_rng(3), 5)
        mapping = truth_map(ds)
        assert set(mapping) == {f"q{i}" for i in range(5)}
        assert mapping["q0"] == ds.examples[0].explanation.indices
