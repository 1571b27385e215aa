"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

These are the end-to-end checks the package is accepted against: Monte
Carlo coverage for plain and robust calibration, brute-force agreement for
the exact calibrator and the robust maxima, property sweeps for nesting and
degenerate paths, and a byte-level CLI round trip. Each test prints its
verdict and measured margins directly to the terminal, bypassing capture.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from tokencover.calibrate import (
    adjusted_bound,
    calibrate_exact,
    calibrate_grid,
    critical_thresholds,
    empirical_risk,
    loss,
)
from tokencover.core import (
    CalibrationExample,
    ScoredArrays,
    GroundTruthExplanation,
    TokenizedQuestion,
    write_dataset,
)
from tokencover.robust import (
    BallSpec,
    SynonymLexicon,
    build_robust_set,
    enumerate_ball,
    evaluate_robust,
    plain_set_pairs,
    robust_scores,
)
from tokencover.scorer import OracleNoiseScorer, TableScorer, oracle_noise_score
from tokencover.sets import build_set, evaluate
from tokencover.sim import SyntheticConfig, run_coverage_experiment

from conftest import random_dataset, random_example


def emit(capsys, number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[acceptance] criterion {number}: {verdict} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def group_lexicon(*groups):
    entries = {}
    for g in groups:
        for tok in g:
            entries[tok] = list(g)
    return SynonymLexicon(entries=entries)


def make_instance(rng, k, fanout):
    """A question whose every token has ``fanout`` synonym alternatives."""
    groups = []
    tokens = []
    for j in range(k):
        group = [f"g{j}_{i}" for i in range(fanout + 1)]
        groups.append(group)
        tokens.append(group[int(rng.integers(0, fanout + 1))])
    return TokenizedQuestion(id="q0", tokens=tuple(tokens)), group_lexicon(*groups)


class TestCriterion1Coverage:
    def test_mean_test_loss_within_alpha(self, capsys):
        alphas = [0.1, 0.2, 0.45, 0.8]
        config = SyntheticConfig(
            n_calibration=100,
            n_test=100,
            k_range=(8, 16),
            truth_fraction=0.4,
            sigma=0.3,
            seed=20260816,
        )
        start = time.monotonic()
        reports = run_coverage_experiment(config, alphas, trials=500, workers=4)
        elapsed = time.monotonic() - start
        margins = []
        ok = True
        for rep in reports:
            limit = rep.alpha + 3 * rep.se
            margins.append(f"a={rep.alpha}: loss={rep.mean_loss:.4f} limit={limit:.4f}")
            if rep.mean_loss > limit:
                ok = False
        emit(capsys, 1, ok, f"{'; '.join(margins)}; {elapsed:.1f}s for 500 trials")


class TestCriterion2RobustCoverage:
    def test_robust_loss_within_alpha_and_exhaustive_superset(self, capsys):
        config = SyntheticConfig(
            n_calibration=100,
            n_test=100,
            k_range=(8, 16),
            truth_fraction=0.4,
            sigma=0.3,
            synonym_fanout=2,
            d=1,
            seed=20260817,
        )
        start = time.monotonic()
        reports = run_coverage_experiment(
            config, [0.2, 0.45], trials=500, robust=True, workers=4
        )
        parts = []
        ok = True
        for rep in reports:
            limit = rep.alpha + 3 * rep.se
            parts.append(f"a={rep.alpha}: loss={rep.mean_loss:.4f} limit={limit:.4f}")
            if rep.mean_loss > limit or rep.superset_rate != 1.0:
                ok = False

        # exhaustive part: every member of every ball within the bounds acts
        # as the noisy question, and the robust set must keep all the
        # (position, token) pairs of the clean question's plain set
        rng = np.random.default_rng(99)
        checks = 0
        violations = 0
        cases = [
            # coordinatewise oracle scoring at the full bounds
            ("oracle", 8, 2, 3),
            ("oracle", 8, 1, 1),
            ("oracle", 5, 2, 2),
            ("oracle", 3, 2, 3),
            ("oracle", 1, 2, 1),
            # exact-mode enumeration with a context-dependent table scorer
            ("table", 4, 2, 2),
            ("table", 3, 2, 3),
            ("table", 2, 1, 3),
        ]
        for kind, k, d, fanout in cases:
            clean, lexicon = make_instance(rng, k, fanout)
            if kind == "oracle":
                truth = {int(v) for v in rng.choice(k, size=max(1, k // 2), replace=False)}
                scorer = OracleNoiseScorer(0.4, seed=k * 100 + d, truth_by_id={"q0": truth})
                spec = BallSpec(d=d, mode="coordinatewise")
            else:
                space = itertools.product(*(sorted(lexicon.synonyms(t)) for t in clean.tokens))
                table = {m: tuple(float(v) for v in rng.uniform(0, 1, size=k)) for m in space}
                scorer = TableScorer(table)
                spec = BallSpec(d=d, mode="exact")
            clean_scores = scorer.score_question(clean).values
            lams = sorted({1.0 - s for s in clean_scores} | {0.0, 0.37, 1.0})
            for noisy in enumerate_ball(clean, lexicon, BallSpec(d=d)):
                tables = robust_scores(noisy, lexicon, spec, scorer)
                for lam in lams:
                    cutoff = 1.0 - lam
                    robust_pairs = {pair for pair, v in tables.items() if v >= cutoff}
                    plain_pairs = {
                        (j, clean.tokens[j])
                        for j, v in enumerate(clean_scores)
                        if v >= cutoff
                    }
                    checks += 1
                    if not plain_pairs <= robust_pairs:
                        violations += 1
        elapsed = time.monotonic() - start
        if violations:
            ok = False
        parts.append(f"superset {checks - violations}/{checks} exhaustive checks")
        emit(capsys, 2, ok, f"{'; '.join(parts)}; {elapsed:.1f}s")


class TestCriterion3ExactnessOracle:
    def test_exact_calibrator_against_brute_scan(self, capsys):
        def brute_risks_on_grid(examples, grid):
            # independent of the production searchsorted path
            cutoffs = 1.0 - grid
            total = np.zeros(grid.size)
            for ex in examples:
                tvals = np.array(
                    [ex.scores.values[j] for j in ex.explanation.indices]
                )
                covered = (tvals[None, :] >= cutoffs[:, None]).sum(axis=1)
                total += 1.0 - covered / tvals.size
            return total / len(examples)

        rng = np.random.default_rng(333)
        grid = np.linspace(0.0, 1.0, 100_000)
        step = grid[1] - grid[0]
        scan_ok = 0
        grid_eq = 0
        datasets = 100
        for _ in range(datasets):
            ds = random_dataset(rng, 50)
            alpha = float(rng.uniform(0.05, 0.95))
            exact = calibrate_exact(ds.examples, alpha)
            bound = adjusted_bound(alpha, 50)
            feasible_at = np.nonzero(brute_risks_on_grid(ds.examples, grid) <= bound)[0]
            if exact.feasible:
                if feasible_at.size > 0:
                    first = float(grid[feasible_at[0]])
                    if 0.0 <= first - exact.lambda_hat <= step + 1e-12:
                        scan_ok += 1
            else:
                if feasible_at.size == 0 and exact.lambda_hat == 1.0:
                    scan_ok += 1
            on_critical = calibrate_grid(
                ds.examples, alpha, grid=critical_thresholds(ds.examples)
            )
            if (
                on_critical.lambda_hat == exact.lambda_hat
                and on_critical.feasible == exact.feasible
            ):
                grid_eq += 1
        ok = scan_ok == datasets and grid_eq == datasets
        emit(
            capsys, 3, ok,
            f"brute scan agreement {scan_ok}/{datasets}, "
            f"critical-grid equality {grid_eq}/{datasets}",
        )


class TestCriterion4Monotonicity:
    def test_nesting_and_loss_anti_monotonicity(self, capsys):
        rng = np.random.default_rng(444)
        cases = 10_000
        nesting_violations = 0
        loss_violations = 0
        for i in range(cases):
            ex = random_example(rng, qid=f"q{i}")
            lam1, lam2 = sorted(rng.uniform(0, 1, size=2))
            small = build_set(ex.question, ex.scores, float(lam1))
            large = build_set(ex.question, ex.scores, float(lam2))
            if not small.indices <= large.indices:
                nesting_violations += 1
            if loss(small, ex.explanation) < loss(large, ex.explanation):
                loss_violations += 1
        ok = nesting_violations == 0 and loss_violations == 0
        emit(
            capsys, 4, ok,
            f"{cases} cases, {nesting_violations} nesting / "
            f"{loss_violations} loss-order violations",
        )


class TestCriterion5DegeneratePaths:
    def test_edge_behaviors(self, capsys):
        problems = []

        rng = np.random.default_rng(555)
        for i in range(200):
            ex = random_example(rng, qid=f"q{i}")
            full = build_set(ex.question, ex.scores, 1.0)
            if full.indices != frozenset(range(len(ex.question.tokens))):
                problems.append("lambda=1 set not full")
            if loss(full, ex.explanation) != 0.0:
                problems.append("lambda=1 loss not zero")

        # negative bound forces the infeasible fallback in both modes
        tiny = random_dataset(rng, 3).examples
        for res in (calibrate_exact(tiny, 0.2), calibrate_grid(tiny, 0.2)):
            if res.adjusted_bound >= 0:
                problems.append("expected a negative bound")
            if res.feasible or res.lambda_hat != 1.0:
                problems.append(f"infeasible fallback broken in {res.mode} mode")

        noiseless = SyntheticConfig(
            n_calibration=40, n_test=10, k_range=(4, 9), sigma=0.0, seed=5
        )
        from tokencover.sim import generate_synthetic_dataset

        clean_ds = generate_synthetic_dataset(noiseless)
        for lam in np.linspace(0.001, 1.0, 57):
            if empirical_risk(clean_ds.examples, float(lam)) != 0.0:
                problems.append(f"noiseless risk not zero at lambda={lam}")
                break

        # d=0 robust pipeline must reduce to the plain pipeline
        from tokencover.calibrate import CalibrationResult

        for i in range(50):
            ex = random_example(rng, qid="q0")
            lam = float(rng.uniform(0, 1))
            calib = CalibrationResult(
                lambda_hat=lam, alpha=0.2, n=10, adjusted_bound=0.12,
                feasible=True, mode="exact",
            )
            lexicon = group_lexicon(*[[t, f"{t}~alt"] for t in set(ex.question.tokens)])
            scorer = TableScorer({ex.question.tokens: ex.scores.values})
            rset = build_robust_set(
                ex.question, lexicon, BallSpec(d=0), scorer, calib
            )
            plain = build_set(ex.question, ex.scores, lam)
            if rset.pairs() != plain_set_pairs(plain):
                problems.append("d=0 robust pairs differ from plain set")
            r_eval = evaluate_robust(rset, ex.question, ex.explanation)
            p_eval = evaluate(plain, ex.explanation)
            if (r_eval.loss, r_eval.n_positions) != (p_eval.loss, p_eval.set_size):
                problems.append("d=0 robust evaluation differs from plain")

        ok = not problems
        emit(capsys, 5, ok, "all edge paths hold" if ok else "; ".join(problems[:4]))


class TestCriterion6RobustSupOracle:
    def test_robust_maxima_against_exhaustive_enumeration(self, capsys):
        def brute_table(tokens, lexicon, d, score_by_member):
            per_pos = [sorted(lexicon.synonyms(t)) for t in tokens]
            best = {}
            for member in itertools.product(*per_pos):
                if sum(a != b for a, b in zip(member, tokens)) > d:
                    continue
                values = score_by_member[member]
                for j, tok in enumerate(member):
                    key = (j, tok)
                    if key not in best or values[j] > best[key]:
                        best[key] = values[j]
            return best

        rng = np.random.default_rng(666)
        instances = 200
        table_ok = 0
        mode_ok = 0
        for i in range(instances):
            k = int(rng.integers(1, 7))
            fanout = int(rng.integers(1, 4))
            d = int(rng.integers(0, 3))
            question, lexicon = make_instance(rng, k, fanout)
            space = itertools.product(*(sorted(lexicon.synonyms(t)) for t in question.tokens))
            table = {m: tuple(float(v) for v in rng.uniform(0, 1, size=k)) for m in space}
            got = robust_scores(question, lexicon, BallSpec(d=d), TableScorer(table))
            if got == brute_table(question.tokens, lexicon, d, table):
                table_ok += 1

            scorer = OracleNoiseScorer(0.5, seed=i, truth_by_id={"q0": {0}})
            exact = robust_scores(question, lexicon, BallSpec(d=d, mode="exact"), scorer)
            coord = robust_scores(
                question, lexicon, BallSpec(d=d, mode="coordinatewise"), scorer
            )
            if exact == coord:
                mode_ok += 1
        ok = table_ok == instances and mode_ok == instances
        emit(
            capsys, 6, ok,
            f"exhaustive-max agreement {table_ok}/{instances}, "
            f"mode equality {mode_ok}/{instances}",
        )


class TestCriterion7CliRoundTrip:
    def test_byte_identical_runs_and_tamper_detection(self, capsys, tmp_path):
        rng = np.random.default_rng(777)
        examples = []
        for i in range(20):
            k = 6
            tokens = tuple(f"w{i}_{j}" for j in range(k))
            truth = frozenset(int(v) for v in rng.choice(k, size=2, replace=False))
            scores = oracle_noise_score(truth, tokens, 0.3, 41)
            examples.append(
                CalibrationExample(
                    question=TokenizedQuestion(id=f"q{i}", tokens=tokens),
                    scores=scores,
                    explanation=GroundTruthExplanation(truth),
                )
            )
        data_path = tmp_path / "data.jsonl"
        write_dataset(ScoredArrays.from_examples(examples), data_path)

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "tokencover", *args],
                capture_output=True, text=True,
            )

        outputs = []
        for tag in ("one", "two"):
            calib = tmp_path / f"calib_{tag}.json"
            pred = tmp_path / f"pred_{tag}.jsonl"
            stats = tmp_path / f"stats_{tag}.json"
            r1 = run("calibrate", "--dataset", str(data_path), "--alpha", "0.3",
                     "--out", str(calib))
            r2 = run("predict", "--dataset", str(data_path), "--calibration",
                     str(calib), "--out", str(pred),
                     "--scorer", "oracle_noise:sigma=0.3", "--seed", "41")
            r3 = run("stats", "--dataset", str(data_path), "--calibration",
                     str(calib), "--out", str(stats))
            codes = (r1.returncode, r2.returncode, r3.returncode)
            outputs.append(
                (codes, calib.read_bytes(), pred.read_bytes(), stats.read_bytes())
            )
        identical = outputs[0] == outputs[1]
        clean_codes = outputs[0][0] == (0, 0, 0)

        calib = tmp_path / "calib_one.json"
        rec = json.loads(calib.read_text())
        rec["lambda_hat"] = 0.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(rec), encoding="utf-8")
        verdict = run("stats", "--dataset", str(data_path), "--calibration", str(tampered))
        tamper_caught = verdict.returncode == 3

        ok = identical and clean_codes and tamper_caught
        emit(
            capsys, 7, ok,
            f"byte-identical={identical}, exit codes ok={clean_codes}, "
            f"tampered stats exit={verdict.returncode}",
        )
