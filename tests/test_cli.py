"""Command-line interface: flows, file outputs, and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from tokencover import cli
from tokencover.calibrate import calibrate_exact, risk_curve, uniform_grid
from tokencover.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main, parse_scorer_spec
from tokencover.core import (
    CalibrationExample,
    GroundTruthExplanation,
    ImportanceScores,
    ScoredArrays,
    TokenizedQuestion,
    load_dataset,
    write_dataset,
)
from tokencover.scorer import ConstantScorer, ScorerError, oracle_noise_score

SIGMA = 0.3
SCORER_SEED = 5
ORACLE_ARGS = ["--scorer", f"oracle_noise:sigma={SIGMA}", "--seed", str(SCORER_SEED)]


def make_dataset(n=12, k=5, seed=3):
    """Scored examples the CLI oracle scorer reproduces exactly."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        tokens = tuple(f"w{i}_{j}" for j in range(k))
        truth = frozenset(int(v) for v in rng.choice(k, size=2, replace=False))
        scores = oracle_noise_score(truth, tokens, SIGMA, SCORER_SEED)
        examples.append(
            CalibrationExample(
                question=TokenizedQuestion(id=f"q{i}", tokens=tokens),
                scores=scores,
                explanation=GroundTruthExplanation(truth),
            )
        )
    return ScoredArrays.from_examples(examples)


@pytest.fixture
def workdir(tmp_path):
    ds = make_dataset()
    path = tmp_path / "data.jsonl"
    write_dataset(ds, path)
    return tmp_path, str(path), ds


def run_calibrate(tmp_path, data_path, alpha="0.3", extra=()):
    out = tmp_path / "calib.json"
    code = main(
        ["calibrate", "--dataset", data_path, "--alpha", alpha, "--out", str(out), *extra]
    )
    return code, out


class TestParseScorerSpec:
    def test_plain_kind(self):
        spec = parse_scorer_spec("uniform_random", seed=4)
        assert spec.kind == "uniform_random"
        assert spec.seed == 4
        assert dict(spec.parameters) == {}

    def test_numeric_coercion(self):
        spec = parse_scorer_spec("oracle_noise:sigma=0.3,extra=2", seed=0)
        assert spec.parameters["sigma"] == 0.3
        assert spec.parameters["extra"] == 2
        assert isinstance(spec.parameters["extra"], int)

    def test_string_values_pass_through(self):
        spec = parse_scorer_spec("remote:endpoint=http://host/score", seed=0)
        assert spec.parameters["endpoint"] == "http://host/score"

    def test_missing_equals_sign(self):
        with pytest.raises(ScorerError, match="key=value"):
            parse_scorer_spec("constant:value", seed=0)


class TestCalibrateCommand:
    def test_exact_mode_matches_library(self, workdir, capsys):
        tmp_path, data_path, ds = workdir
        code, out = run_calibrate(tmp_path, data_path)
        assert code == EXIT_OK
        rec = json.loads(out.read_text())
        expected = calibrate_exact(list(ds.examples), 0.3)
        assert rec["lambda_hat"] == expected.lambda_hat
        assert rec["feasible"] == expected.feasible
        assert rec["n"] == 12
        assert rec["mode"] == "exact"
        assert "calibrated" in capsys.readouterr().out

    def test_grid_mode_records_grid_size(self, workdir):
        tmp_path, data_path, _ = workdir
        code, out = run_calibrate(
            tmp_path, data_path, extra=["--mode", "grid", "--grid-size", "101"]
        )
        assert code == EXIT_OK
        rec = json.loads(out.read_text())
        assert rec["mode"] == "grid"
        assert rec["grid_size"] == 101

    def test_scorer_id_stamped(self, workdir):
        tmp_path, data_path, _ = workdir
        code, out = run_calibrate(tmp_path, data_path, extra=["--scorer-id", "my-scorer"])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["scorer_id"] == "my-scorer"

    def test_curve_out(self, workdir):
        tmp_path, data_path, _ = workdir
        curve = tmp_path / "curve.csv"
        code, _ = run_calibrate(
            tmp_path, data_path, extra=["--grid-size", "11", "--curve-out", str(curve)]
        )
        assert code == EXIT_OK
        lines = curve.read_text().strip().split("\n")
        assert lines[0] == "lambda,risk,n"
        assert len(lines) == 12
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[1]) == 0.0

    def test_curve_streamed_in_slices_is_the_whole_curve(self, workdir, monkeypatch):
        tmp_path, data_path, _ = workdir
        whole = risk_curve(load_dataset(data_path), uniform_grid(101))
        expected = "lambda,risk,n\n" + "".join(f"{t!r},{r!r},{n}\n" for t, r, n in whole.rows())
        monkeypatch.setattr(cli, "_CURVE_CHUNK", 7)  # 101 points: 14 full slices and one of 3
        curve = tmp_path / "curve.csv"
        code, _ = run_calibrate(
            tmp_path, data_path, extra=["--grid-size", "101", "--curve-out", str(curve)]
        )
        assert code == EXIT_OK
        assert curve.read_text() == expected

    def test_missing_dataset_is_input_error(self, tmp_path, capsys):
        code, _ = run_calibrate(tmp_path, str(tmp_path / "nope.jsonl"))
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_malformed_dataset_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "q0"}\n', encoding="utf-8")
        code, _ = run_calibrate(tmp_path, str(bad))
        assert code == EXIT_INPUT

    def test_alpha_out_of_range_is_usage_error(self, workdir):
        tmp_path, data_path, _ = workdir
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--dataset", data_path, "--alpha", "1.5", "--out", "x.json"])
        assert exc.value.code == 2


class TestPredictCommand:
    def test_round_trip(self, workdir, capsys):
        tmp_path, data_path, ds = workdir
        code, calib = run_calibrate(tmp_path, data_path)
        assert code == EXIT_OK
        out = tmp_path / "pred.jsonl"
        code = main(
            ["predict", "--dataset", data_path, "--calibration", str(calib),
             "--out", str(out), *ORACLE_ARGS]
        )
        assert code == EXIT_OK
        assert "mean_loss=" in capsys.readouterr().out
        rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
        assert [r["id"] for r in rows] == [f"q{i}" for i in range(12)]
        lam = json.loads(calib.read_text())["lambda_hat"]
        for row, ex in zip(rows, ds.examples):
            assert row["lambda"] == lam
            assert row["indices"] == sorted(row["indices"])
            # the oracle reproduces the stored scores, so the selection
            # matches thresholding the dataset directly
            expected = sorted(
                j for j, v in enumerate(ex.scores.values) if v >= 1.0 - lam
            )
            assert row["indices"] == expected
            assert row["tokens"] == [[j, ex.question.tokens[j]] for j in expected]

    def test_deterministic_output(self, workdir):
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path)
        out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        for out in (out1, out2):
            code = main(
                ["predict", "--dataset", data_path, "--calibration", str(calib),
                 "--out", str(out), *ORACLE_ARGS]
            )
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_identity_mismatch_warns_then_strict_fails(self, workdir, capsys):
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path, extra=["--scorer-id", "other"])
        out = tmp_path / "pred.jsonl"
        args = ["predict", "--dataset", data_path, "--calibration", str(calib),
                "--out", str(out), *ORACLE_ARGS]
        with pytest.warns(UserWarning, match="does not match"):
            assert main(args) == EXIT_OK
        assert main([*args, "--strict"]) == EXIT_INPUT
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("scorer", [ORACLE_ARGS, ["--scorer", "constant:value=0.75"],
                                        "remote"])
    def test_workers_do_not_change_output(self, workdir, capsys, monkeypatch, request, scorer):
        tmp_path, data_path, _ = workdir
        remote = scorer == "remote"
        if remote:
            url, state = request.getfixturevalue("http_scorer_server")
            scorer = ["--scorer", f"remote:endpoint={url},retries=0"]
            monkeypatch.delenv("SCORER_CACHE_DIR", raising=False)
        _, calib = run_calibrate(tmp_path, data_path)
        capsys.readouterr()
        outputs = []
        for workers in ("0", "1", "2"):
            out = tmp_path / f"pred-{workers}.jsonl"
            code = main(["predict", "--dataset", data_path, "--calibration", str(calib),
                         "--out", str(out), "--workers", workers, *scorer])
            assert code == EXIT_OK
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1] == outputs[2]
        if remote:
            # each run is a fresh scorer with no disk cache: one POST per question
            assert len(state["bodies"]) == 3 * 12

    def test_short_scores_are_rejected(self, workdir, capsys, monkeypatch):
        # a scorer one score short on one question must fail the command,
        # never shift the scores of the questions after it
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path)

        class ShortScorer(ConstantScorer):
            def score_question(self, question):
                values = super().score_question(question).values
                return ImportanceScores(values[:-1] if question.id == "q3" else values)

        monkeypatch.setattr(cli, "make_scorer", lambda spec, **kw: ShortScorer(0.5))
        out = tmp_path / "pred.jsonl"
        code = main(["predict", "--dataset", data_path, "--calibration", str(calib),
                     "--out", str(out), "--scorer", "constant:value=0.5"])
        assert code == EXIT_INPUT
        assert "scores length 4 does not match 5 tokens" in capsys.readouterr().err
        assert not out.exists()


def write_lexicon(path, tokens):
    lines = []
    for tok in tokens:
        alt = f"{tok}~1"
        lines.append(json.dumps({"token": tok, "synonyms": [tok, alt]}))
        lines.append(json.dumps({"token": alt, "synonyms": [alt, tok]}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def robust_workdir(workdir):
    tmp_path, data_path, ds = workdir
    lex_path = tmp_path / "lex.jsonl"
    write_lexicon(lex_path, [t for ex in ds.examples for t in ex.question.tokens])
    return tmp_path, data_path, ds, str(lex_path)


class TestRobustPredictCommand:
    def run(self, tmp_path, data_path, calib, lex_path, out, extra=()):
        return main(
            ["robust-predict", "--dataset", data_path, "--calibration", str(calib),
             "--lexicon", lex_path, "--d", "1", "--out", str(out), *ORACLE_ARGS, *extra]
        )

    def test_rows_and_superset_of_plain(self, robust_workdir, capsys):
        tmp_path, data_path, ds, lex_path = robust_workdir
        _, calib = run_calibrate(tmp_path, data_path)
        plain_out = tmp_path / "plain.jsonl"
        main(["predict", "--dataset", data_path, "--calibration", str(calib),
              "--out", str(plain_out), *ORACLE_ARGS])
        robust_out = tmp_path / "robust.jsonl"
        assert self.run(tmp_path, data_path, calib, lex_path, robust_out) == EXIT_OK
        assert "mode=coordinatewise" in capsys.readouterr().out

        plain_rows = [json.loads(l) for l in plain_out.read_text().strip().split("\n")]
        robust_rows = [json.loads(l) for l in robust_out.read_text().strip().split("\n")]
        for prow, rrow in zip(plain_rows, robust_rows):
            assert rrow["id"] == prow["id"]
            assert rrow["ball_size"] >= 1
            robust_pairs = {(it["position"], it["candidate"]) for it in rrow["items"]}
            plain_pairs = {(j, t) for j, t in prow["tokens"]}
            assert plain_pairs <= robust_pairs

    def test_exact_mode_agrees_with_coordinatewise(self, robust_workdir):
        tmp_path, data_path, _, lex_path = robust_workdir
        _, calib = run_calibrate(tmp_path, data_path)
        out_c = tmp_path / "coord.jsonl"
        out_e = tmp_path / "exact.jsonl"
        assert self.run(tmp_path, data_path, calib, lex_path, out_c) == EXIT_OK
        assert self.run(
            tmp_path, data_path, calib, lex_path, out_e, extra=["--ball-mode", "exact"]
        ) == EXIT_OK
        rows_c = [json.loads(l) for l in out_c.read_text().strip().split("\n")]
        rows_e = [json.loads(l) for l in out_e.read_text().strip().split("\n")]
        for rc, re_ in zip(rows_c, rows_e):
            assert rc["items"] == re_["items"]
            assert rc["ball_size"] == re_["ball_size"]

    def test_budget_exceeded_is_input_error(self, robust_workdir, capsys):
        tmp_path, data_path, _, lex_path = robust_workdir
        _, calib = run_calibrate(tmp_path, data_path)
        out = tmp_path / "r.jsonl"
        code = self.run(
            tmp_path, data_path, calib, lex_path, out,
            extra=["--ball-mode", "exact", "--budget", "2"],
        )
        assert code == EXIT_INPUT
        assert "budget" in capsys.readouterr().err


SIM_FLAGS = ["--n-calibration", "20", "--n-test", "10", "--k-min", "3", "--k-max", "5",
             "--seed", "4", "--trials", "2"]


class TestSimulateCommand:
    def test_inline_flags_to_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["simulate", "--alpha", "0.3", *SIM_FLAGS, "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("alpha,mode,robust,")
        assert len(lines) == 2
        assert lines[1].startswith("0.3,exact,false,2,")
        assert "alpha=0.3" in capsys.readouterr().out

    def test_config_sweep_matches_inline(self, tmp_path):
        config = {
            "config": {"n_calibration": 20, "n_test": 10, "k_range": [3, 5], "seed": 4},
            "runs": [
                {"alpha": 0.4, "trials": 2},
                {"alpha": 0.2, "trials": 2},
            ],
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "sweep.csv"
        report = tmp_path / "report.json"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--report-out", str(report)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("0.2,") and lines[2].startswith("0.4,")

        inline = tmp_path / "inline.csv"
        main(["simulate", "--alpha", "0.2", *SIM_FLAGS, "--out", str(inline)])
        assert inline.read_text().strip().split("\n")[1] == lines[1]

        recs = json.loads(report.read_text())
        assert len(recs) == 2
        assert all(len(r["per_trial_losses"]) == 2 for r in recs)

    def test_requires_alpha_or_config(self, tmp_path, capsys):
        assert main(["simulate"]) == EXIT_INPUT
        assert "--alpha or --config" in capsys.readouterr().err

    def test_config_rejects_bad_alpha(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"runs": [{"alpha": 2.0}]}), encoding="utf-8")
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_INPUT


class TestStatsCommand:
    def test_verifies_fresh_calibration(self, workdir, capsys):
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path)
        out = tmp_path / "stats.json"
        code = main(["stats", "--dataset", data_path, "--calibration", str(calib),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "verified" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["bound_satisfied"] is True
        assert payload["problems"] == []
        assert payload["set_size"]["min"] <= payload["set_size"]["median"] <= payload["set_size"]["max"]

    def tamper(self, calib, **changes):
        rec = json.loads(calib.read_text())
        rec.update(changes)
        calib.write_text(json.dumps(rec), encoding="utf-8")

    def test_tampered_lambda_detected(self, workdir, capsys):
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path)
        assert json.loads(calib.read_text())["lambda_hat"] > 0.0
        self.tamper(calib, lambda_hat=0.0)
        code = main(["stats", "--dataset", data_path, "--calibration", str(calib)])
        assert code == EXIT_VERIFY
        assert "verification failure" in capsys.readouterr().err

    def test_tampered_bound_detected(self, workdir):
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path)
        rec = json.loads(calib.read_text())
        self.tamper(calib, adjusted_bound=rec["adjusted_bound"] + 0.05)
        assert main(["stats", "--dataset", data_path, "--calibration", str(calib)]) == EXIT_VERIFY

    def test_tampered_n_detected(self, workdir):
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path)
        self.tamper(calib, n=7)
        assert main(["stats", "--dataset", data_path, "--calibration", str(calib)]) == EXIT_VERIFY

    def test_risk_equal_to_bound_verifies(self, tmp_path, capsys):
        # at lambda = 1 - 0.9 the exact risk is 3996 / 5 / 4000 = 999/5000,
        # the bound at alpha = 0.2; summed in floats it lands just above it
        n = 4000
        ds = ScoredArrays.from_examples(
            CalibrationExample(
                question=TokenizedQuestion(id=f"q{i}", tokens=("a", "b", "c", "d", "e", "f")),
                scores=ImportanceScores((0.25 if i < 3996 else 0.9, 0.9, 0.9, 0.9, 0.9, 0.1)),
                explanation=GroundTruthExplanation(frozenset(range(5))),
            )
            for i in range(n)
        )
        data_path = tmp_path / "tie.jsonl"
        write_dataset(ds, data_path)
        curve = tmp_path / "curve.csv"
        code, calib = run_calibrate(tmp_path, str(data_path), alpha="0.2",
                                    extra=("--curve-out", str(curve)))
        assert code == EXIT_OK
        assert json.loads(calib.read_text())["lambda_hat"] == 1.0 - 0.9
        assert curve.read_text().splitlines()[-1] == f"1.0,0.0,{n}"
        out = tmp_path / "stats.json"
        code = main(["stats", "--dataset", str(data_path), "--calibration", str(calib),
                     "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        assert json.loads(out.read_text())["bound_satisfied"] is True

    def test_false_infeasibility_detected(self, workdir):
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path)
        self.tamper(calib, feasible=False)
        assert main(["stats", "--dataset", data_path, "--calibration", str(calib)]) == EXIT_VERIFY

    def stats_problems(self, data_path, calib, capsys):
        code = main(["stats", "--dataset", data_path, "--calibration", str(calib)])
        assert code == EXIT_VERIFY
        return json.loads(capsys.readouterr().out)["problems"]

    @pytest.mark.parametrize("raise_by", [0.1, None], ids=["raised", "to-one"])
    def test_conservative_lambda_detected(self, workdir, capsys, raise_by):
        # a larger lambda_hat still meets the bound, but its mode never gives it
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path)
        rec = json.loads(calib.read_text())
        assert rec["feasible"] and rec["lambda_hat"] + 0.1 < 1.0
        lam = 1.0 if raise_by is None else rec["lambda_hat"] + raise_by
        self.tamper(calib, lambda_hat=lam)
        capsys.readouterr()
        [problem] = self.stats_problems(data_path, calib, capsys)
        assert problem.startswith(f"lambda_hat={lam!r} but ")
        assert problem.endswith(f"gives {rec['lambda_hat']!r}")

    def test_other_alpha_with_matching_bound_detected(self, workdir, capsys):
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path, alpha="0.2")
        rec = json.loads(calib.read_text())
        at_03 = calibrate_exact(load_dataset(data_path), 0.3)
        assert at_03.lambda_hat != rec["lambda_hat"]
        self.tamper(calib, alpha=0.3, adjusted_bound=at_03.adjusted_bound)
        capsys.readouterr()
        [problem] = self.stats_problems(data_path, calib, capsys)
        assert problem.startswith(f"lambda_hat={rec['lambda_hat']!r} but ")
        assert "at alpha=0.3 in exact mode" in problem

    def test_grid_calibration_verifies(self, workdir, capsys):
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path, extra=["--mode", "grid", "--grid-size", "11"])
        out = tmp_path / "stats.json"
        code = main(["stats", "--dataset", data_path, "--calibration", str(calib),
                     "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        assert json.loads(out.read_text())["problems"] == []

    def test_other_grid_size_detected(self, workdir, capsys):
        # re-derived on the file's own grid, so the point of the other grid differs
        tmp_path, data_path, _ = workdir
        _, calib = run_calibrate(tmp_path, data_path, extra=["--mode", "grid", "--grid-size", "11"])
        self.tamper(calib, grid_size=12)
        capsys.readouterr()
        [problem] = self.stats_problems(data_path, calib, capsys)
        assert problem.startswith("lambda_hat=") and "in grid mode gives" in problem


class TestModuleEntryPoint:
    def test_full_flow_in_subprocess(self, workdir):
        tmp_path, data_path, _ = workdir
        calib = tmp_path / "calib.json"
        pred = tmp_path / "pred.jsonl"

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "tokencover", *args],
                capture_output=True, text=True,
            )

        got = run("calibrate", "--dataset", data_path, "--alpha", "0.3",
                  "--out", str(calib))
        assert got.returncode == EXIT_OK, got.stderr
        got = run("predict", "--dataset", data_path, "--calibration", str(calib),
                  "--out", str(pred), *ORACLE_ARGS)
        assert got.returncode == EXIT_OK, got.stderr
        got = run("stats", "--dataset", data_path, "--calibration", str(calib))
        assert got.returncode == EXIT_OK, got.stderr
        assert "verified" in got.stdout
