"""The public surface: what ``from tokencover import *`` gives, and report dicts."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

import tokencover
from tokencover.calibrate import CalibrationResult
from tokencover.robust import RobustEvaluation
from tokencover.sets import EvaluationReport
from tokencover.sim import CoverageReport

README = Path(__file__).resolve().parent.parent / "README.md"


class TestAll:
    def test_star_import_is_exactly_all(self):
        namespace: dict = {}
        exec("from tokencover import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(tokencover.__all__)

    def test_no_duplicates_and_at_most_43_names(self):
        assert len(set(tokencover.__all__)) == len(tokencover.__all__)
        assert len(tokencover.__all__) <= 43

    def test_readme_imports_are_public(self):
        blocks = re.findall(r"from tokencover import \(([^)]*)\)", README.read_text("utf-8"))
        assert blocks
        names = {n.strip() for block in blocks for n in block.split(",") if n.strip()}
        assert names <= set(tokencover.__all__)


# Each report as it was serialised when every ``to_dict`` listed its fields by hand.
CALIBRATION = CalibrationResult(lambda_hat=0.4310000000000001, alpha=0.2, n=100,
                                adjusted_bound=0.192, feasible=True, mode="grid",
                                grid_size=1001, scorer_id="oracle_noise:sigma=0.3")
EVALUATION = EvaluationReport(question_id="q7", loss=1 / 3, set_size=4, truth_size=3, covered=2)
ROBUST = RobustEvaluation(question_id="qé", loss=0.0, n_items=6, n_positions=3,
                          truth_size=2, covered=2)
COVERAGE = CoverageReport(alpha=0.45, mode="exact", robust=True, trials=2, mean_loss=0.25,
                          se=0.05, mean_set_size=5.5, mean_lambda=0.6, feasibility_rate=1.0,
                          per_trial_losses=(0.2, 0.3), comparator_mean_loss=0.5,
                          comparator_mean_set_size=4.0, superset_rate=1.0, mean_n_items=9.5)
HAND_WRITTEN = [
    (CALIBRATION, {"lambda_hat": 0.4310000000000001, "alpha": 0.2, "n": 100,
                   "adjusted_bound": 0.192, "feasible": True, "mode": "grid",
                   "grid_size": 1001, "scorer_id": "oracle_noise:sigma=0.3"}),
    (EVALUATION, {"question_id": "q7", "loss": 1 / 3, "set_size": 4, "truth_size": 3,
                  "covered": 2}),
    (ROBUST, {"question_id": "qé", "loss": 0.0, "n_items": 6, "n_positions": 3,
              "truth_size": 2, "covered": 2}),
    (COVERAGE, {"alpha": 0.45, "mode": "exact", "robust": True, "trials": 2,
                "mean_loss": 0.25, "se": 0.05, "mean_set_size": 5.5, "mean_lambda": 0.6,
                "feasibility_rate": 1.0, "per_trial_losses": [0.2, 0.3],
                "comparator_mean_loss": 0.5, "comparator_mean_set_size": 4.0,
                "superset_rate": 1.0, "mean_n_items": 9.5}),
]


@pytest.mark.parametrize("report, expected", HAND_WRITTEN,
                         ids=[type(r).__name__ for r, _ in HAND_WRITTEN])
class TestToDict:
    def test_keys_are_the_fields_in_order(self, report, expected):
        assert list(report.to_dict()) == [f.name for f in dataclasses.fields(report)]

    def test_json_matches_the_hand_written_dict(self, report, expected):
        assert json.dumps(report.to_dict(), indent=2) == json.dumps(expected, indent=2)
        assert report.to_dict() == expected  # a list stays a list, not a tuple
