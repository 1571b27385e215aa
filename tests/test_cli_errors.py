"""Malformed inputs: each exits with a documented code and names the problem.

One row per input: (argv, files, exit code, substring of the message on
stderr). ``files`` maps a file name to its text; the files are written to a
fresh directory that ``{tmp}`` in argv stands for, and the row runs through
``cli.main``. No row may exit 1, which is kept for internal faults.
"""

from __future__ import annotations

import json

import pytest

from tokencover import cli
from tokencover.cli import EXIT_INPUT, main

DATASET = "".join(json.dumps(rec) + "\n" for rec in [
    {"id": "q0", "tokens": ["a", "b"], "scores": [0.9, 0.1], "explanation_indices": [0]},
    {"id": "q1", "tokens": ["c", "d"], "scores": [0.2, 0.8], "explanation_indices": [1]},
])
CALIBRATION_FIELDS = {"lambda_hat": 0.5, "alpha": 0.2, "n": 2, "adjusted_bound": 0.1,
                      "feasible": True, "mode": "exact"}
CALIBRATION = json.dumps(CALIBRATION_FIELDS)
SIMULATE = ["simulate", "--config", "{tmp}/sim.json", "--trials", "1"]
PREDICT = ["predict", "--dataset", "{tmp}/data.jsonl", "--calibration", "{tmp}/calib.json",
           "--out", "{tmp}/out.jsonl"]
PREDICT_FILES = {"data.jsonl": DATASET, "calib.json": CALIBRATION}
PREDICT_CONSTANT = [*PREDICT, "--scorer", "constant:value=0.5"]
CALIBRATE = ["calibrate", "--dataset", "{tmp}/data.jsonl", "--alpha", "0.2",
             "--out", "{tmp}/calib-out.json"]
STATS = ["stats", "--dataset", "{tmp}/data.jsonl", "--calibration", "{tmp}/calib.json"]
ROBUST_PREDICT = ["robust-predict", "--dataset", "{tmp}/data.jsonl", "--calibration",
                  "{tmp}/calib.json", "--lexicon", "{tmp}/lex.jsonl", "--d", "1",
                  "--scorer", "constant:value=0.5", "--out", "{tmp}/out.jsonl"]


def calibration_files(**changes):
    return {"data.jsonl": DATASET, "calib.json": json.dumps({**CALIBRATION_FIELDS, **changes})}


def sim_config(config=None, runs=({"alpha": 0.2},)):
    doc = {"runs": list(runs)}
    if config is not None:
        doc["config"] = config
    return {"sim.json": json.dumps(doc)}


ROWS = [
    pytest.param(SIMULATE, sim_config({"n_cal": 5}), EXIT_INPUT,
                 "unknown 'config' key(s) ['n_cal']", id="config-unknown-key"),
    pytest.param(SIMULATE, sim_config({"k_range": "ab"}), EXIT_INPUT,
                 "k_range must be a pair of integers", id="config-k-range-string"),
    pytest.param(SIMULATE, sim_config(runs=[5]), EXIT_INPUT,
                 "run 0 must be an object", id="run-not-an-object"),
    pytest.param([*PREDICT, "--scorer", "constant:value=abc"], PREDICT_FILES, EXIT_INPUT,
                 "scorer parameter 'value' must be a number", id="scorer-value-string"),
    pytest.param(SIMULATE, sim_config({"n_test": 1.5}), EXIT_INPUT,
                 "n_test must be an integer", id="config-float-count"),
    pytest.param(SIMULATE, sim_config({"sigma": True}), EXIT_INPUT,
                 "sigma must be a number", id="config-bool-sigma"),
    pytest.param(SIMULATE, sim_config([8, 16]), EXIT_INPUT,
                 "'config' must be an object", id="config-not-an-object"),
    pytest.param([*PREDICT, "--scorer", "remote:retries=1.5,endpoint=http://127.0.0.1:9"],
                 PREDICT_FILES, EXIT_INPUT, "scorer parameter 'retries' must be an integer",
                 id="scorer-retries-float"),
    pytest.param(["simulate", "--alpha", "0.2", "--trials", "1", "--sigma", "nan"], {},
                 EXIT_INPUT, "sigma must be finite and >= 0, got nan", id="simulate-sigma-nan"),
    pytest.param([*PREDICT, "--scorer", "oracle_noise:sigma=nan"], PREDICT_FILES, EXIT_INPUT,
                 "sigma must be finite and >= 0, got nan", id="scorer-sigma-nan"),
    pytest.param(SIMULATE, sim_config(runs=[{"alpha": [0.2]}]), EXIT_INPUT,
                 "run 0 'alpha' must be a number, got [0.2]", id="run-alpha-list"),
    pytest.param(SIMULATE, sim_config(runs=[{"alpha": 0.2}, {"alpha": 0.2, "trials": [1]}]),
                 EXIT_INPUT, "run 1 'trials' must be an integer, got [1]", id="run-trials-list"),
    pytest.param(SIMULATE, sim_config(runs=[{"alpha": 0.2, "robust": "false"}]), EXIT_INPUT,
                 "run 0 'robust' must be true or false, got 'false'", id="run-robust-string"),
    pytest.param(SIMULATE, sim_config(runs=[{"alpha": 0.2, "mode": 5}]), EXIT_INPUT,
                 "run 0 'mode' must be a string, got 5", id="run-mode-integer"),
    pytest.param(STATS, calibration_files(feasible="false"), EXIT_INPUT,
                 "'feasible' must be true or false, got 'false'", id="stats-feasible-string"),
    pytest.param(STATS, calibration_files(lambda_hat=True), EXIT_INPUT,
                 "'lambda_hat' must be a number, got True", id="stats-lambda-bool"),
    pytest.param(STATS, calibration_files(n="50"), EXIT_INPUT,
                 "'n' must be an integer, got '50'", id="stats-n-string"),
    pytest.param(STATS, calibration_files(n=2.0), EXIT_INPUT,
                 "'n' must be an integer, got 2.0", id="stats-n-float"),
    pytest.param(STATS, calibration_files(mode=3), EXIT_INPUT,
                 "'mode' must be a string, got 3", id="stats-mode-integer"),
    pytest.param(STATS, calibration_files(grid_size="1001"), EXIT_INPUT,
                 "'grid_size' must be an integer or null, got '1001'", id="stats-grid-size-string"),
    pytest.param(PREDICT_CONSTANT, calibration_files(feasible=1), EXIT_INPUT,
                 "'feasible' must be true or false, got 1", id="predict-feasible-integer"),
    pytest.param(PREDICT_CONSTANT, calibration_files(alpha="0.2"), EXIT_INPUT,
                 "'alpha' must be a number, got '0.2'", id="predict-alpha-string"),
    pytest.param(PREDICT_CONSTANT, calibration_files(scorer_id=5), EXIT_INPUT,
                 "'scorer_id' must be a string or null, got 5", id="predict-scorer-id-integer"),
    pytest.param(PREDICT_CONSTANT, calibration_files(adjusted_bound=None), EXIT_INPUT,
                 "'adjusted_bound' must be a number, got None", id="predict-bound-null"),
    pytest.param([*PREDICT, "--scorer", "remote:max_inflight=4,endpoint=http://127.0.0.1:9"],
                 PREDICT_FILES, EXIT_INPUT, "unknown parameter(s) ['max_inflight']",
                 id="scorer-max-inflight-unknown"),
    pytest.param(SIMULATE, sim_config(runs=[{"alpha": 0.2, "trails": 3, "robusst": True}]),
                 EXIT_INPUT, "run 0 has unknown key(s) ['robusst', 'trails']",
                 id="run-misspelled-keys"),
    pytest.param([*CALIBRATE, "--mode", "grid", "--grid-size", "10000001"], PREDICT_FILES,
                 EXIT_INPUT, "grid size must be >= 2 and at most 10000000, got 10000001",
                 id="calibrate-grid-size-huge"),
    pytest.param([*CALIBRATE, "--grid-size", "10000001", "--curve-out", "{tmp}/curve.csv"],
                 PREDICT_FILES, EXIT_INPUT,
                 "grid size must be >= 2 and at most 10000000, got 10000001",
                 id="calibrate-curve-grid-size-huge"),
]

# Well-typed calibration fields out of range: each exits 2 before any work.
OUT_OF_RANGE = [
    ({"mode": "psychic"}, "'mode' must be 'exact' or 'grid', got 'psychic'", "mode-unknown"),
    ({"mode": "grid", "grid_size": -5}, "'grid_size' must be null in exact mode and an integer "
     ">= 2 in grid mode, got -5", "grid-size-negative"),
    ({"grid_size": -5}, "'grid_size' must be null in exact mode", "grid-size-in-exact-mode"),
    ({"mode": "grid"}, "an integer >= 2 in grid mode, got None", "grid-size-missing"),
    ({"mode": "grid", "grid_size": None}, "an integer >= 2 in grid mode, got None",
     "grid-size-null"),
    ({"mode": "grid", "grid_size": 1}, "an integer >= 2 in grid mode, got 1", "grid-size-one"),
    ({"mode": "grid", "grid_size": 10**9}, "'grid_size' must be at most 10000000, got 1000000000",
     "grid-size-huge"),
    ({"alpha": float("inf")}, "'alpha' must be in (0, 1), got inf", "alpha-infinite"),
    ({"alpha": 1}, "'alpha' must be in (0, 1), got 1.0", "alpha-one"),
    ({"n": -3}, "'n' must be >= 1, got -3", "n-negative"),
    ({"n": 0}, "'n' must be >= 1, got 0", "n-zero"),
    ({"lambda_hat": 1.5}, "'lambda_hat' must be in [0, 1], got 1.5", "lambda-above-one"),
    ({"lambda_hat": -0.1}, "'lambda_hat' must be in [0, 1], got -0.1", "lambda-negative"),
    ({"adjusted_bound": float("nan")}, "'adjusted_bound' must be finite, got nan", "bound-nan"),
]
ROWS += [
    pytest.param(argv, calibration_files(**changes), EXIT_INPUT, message, id=f"{command}-{name}")
    for command, argv in (("stats", STATS), ("predict", PREDICT_CONSTANT))
    for changes, message, name in OUT_OF_RANGE
]
ROWS.append(pytest.param(ROBUST_PREDICT, {**calibration_files(mode="psychic"), "lex.jsonl": ""},
                         EXIT_INPUT, "'mode' must be 'exact' or 'grid', got 'psychic'",
                         id="robust-predict-mode-unknown"))


@pytest.mark.parametrize("argv, files, code, message", ROWS)
def test_malformed_input(tmp_path, capsys, argv, files, code, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == code
    assert message in capsys.readouterr().err


def test_robust_predict_has_no_workers_option(capsys):
    argv = ["robust-predict", "--dataset", "d.jsonl", "--calibration", "c.json", "--lexicon",
            "l.jsonl", "--d", "1", "--scorer", "constant:value=0.5", "--out", "o.jsonl"]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--workers", "2"])
    assert exit_info.value.code == EXIT_INPUT
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_out_of_memory_is_an_input_error(tmp_path, capsys, monkeypatch):
    def load_dataset(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "load_dataset", load_dataset)
    argv = ["stats", "--dataset", str(tmp_path / "data.jsonl"),
            "--calibration", str(tmp_path / "calib.json")]
    assert main(argv) == EXIT_INPUT
    assert "error: stats ran out of memory" in capsys.readouterr().err
