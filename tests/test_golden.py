"""Golden behaviour record: every CLI output, byte for byte, across commits.

One fixed synthetic dataset is written to disk and every command runs on it
through ``cli.main``. Each output file's sha256 must match
``tests/golden.json``, which also pins exact lambda_hat on the 100 oracle
datasets of acceptance criterion 3. A change that alters an output on
purpose regenerates the record with

    PYTHONPATH=src python tests/test_golden.py

and names each changed output, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from tokencover.calibrate import calibrate_exact
from tokencover.cli import EXIT_OK, main
from tokencover.core import write_dataset
from tokencover.sim import SyntheticConfig, generate_synthetic_dataset, synthetic_lexicon

from conftest import random_dataset

GOLDEN = Path(__file__).with_name("golden.json")
ORACLE = ["--scorer", "oracle_noise:sigma=0.3", "--seed", "7"]
SIM = ["--alpha", "0.2", "--trials", "3", "--n-calibration", "40", "--n-test", "40",
       "--seed", "3"]


def cli_outputs(root: Path) -> dict[str, str]:
    """sha256 of every output file of every command, run in ``root``."""
    ds = generate_synthetic_dataset(SyntheticConfig(n_calibration=30, n_test=20, seed=11))
    data = str(root / "data.jsonl")
    write_dataset(ds, data)
    lexicon = synthetic_lexicon(ds, 2)
    (root / "lexicon.jsonl").write_text("".join(
        json.dumps({"token": t, "synonyms": sorted(s)}) + "\n" for t, s in lexicon.entries.items()),
        encoding="utf-8")
    calib = str(root / "exact.json")
    commands = [
        ["calibrate", "--dataset", data, "--alpha", "0.2", "--out", calib,
         "--curve-out", str(root / "exact_curve.csv")],
        ["calibrate", "--dataset", data, "--alpha", "0.2", "--mode", "grid", "--grid-size",
         "101", "--out", str(root / "grid.json"), "--curve-out", str(root / "grid_curve.csv")],
        ["predict", "--dataset", data, "--calibration", calib,
         "--out", str(root / "predict.jsonl"), *ORACLE],
        ["robust-predict", "--dataset", data, "--calibration", calib,
         "--lexicon", str(root / "lexicon.jsonl"), "--d", "1", "--ball-mode", "exact",
         "--scorer", "uniform_random", "--seed", "7", "--out", str(root / "robust_exact.jsonl")],
        ["robust-predict", "--dataset", data, "--calibration", calib,
         "--lexicon", str(root / "lexicon.jsonl"), "--d", "1", "--ball-mode", "coordinatewise",
         *ORACLE, "--out", str(root / "robust_coord.jsonl")],
        ["simulate", *SIM, "--out", str(root / "sim.csv"),
         "--report-out", str(root / "sim.json")],
        ["simulate", *SIM, "--robust", "--out", str(root / "sim_robust.csv"),
         "--report-out", str(root / "sim_robust.json")],
        ["stats", "--dataset", data, "--calibration", calib, "--out", str(root / "stats.json")],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.name not in ("data.jsonl", "lexicon.jsonl")}


def criterion3_lambdas() -> list[list]:
    """[lambda_hat, feasible] of calibrate_exact on criterion 3's datasets."""
    rng = np.random.default_rng(333)
    out = []
    for _ in range(100):
        ds = random_dataset(rng, 50)
        alpha = float(rng.uniform(0.05, 0.95))
        res = calibrate_exact(ds.examples, alpha)
        out.append([res.lambda_hat, res.feasible])
    return out


def test_cli_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert cli_outputs(tmp_path) == golden["cli_sha256"]


def test_criterion3_lambdas_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert criterion3_lambdas() == golden["criterion3_lambda_hat"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"cli_sha256": cli_outputs(Path(tmp)),
                  "criterion3_lambda_hat": criterion3_lambdas()}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
