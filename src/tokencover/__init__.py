"""Coverage-controlled uncertainty sets over token-level explanations.

Calibrate a selection threshold on held-out scored questions so that the
expected fraction of missed ground-truth tokens stays below a user-chosen
level, with an optional robust mode certifying the guarantee under bounded
synonym substitutions.
"""

from .calibrate import (
    CalibrationResult,
    RiskStep,
    adjusted_bound,
    calibrate_exact,
    calibrate_grid,
    loss,
)
from .core import (
    CalibrationExample,
    DatasetError,
    GroundTruthExplanation,
    ImportanceScores,
    ScoredArrays,
    TokenizedQuestion,
    load_dataset,
    split_dataset,
    validate_example,
    write_dataset,
)
from .robust import (
    BallBudgetError,
    BallSpec,
    RobustUncertaintySet,
    SynonymLexicon,
    ball_size,
    build_robust_set,
    evaluate_robust,
    inject_noise,
    load_lexicon,
)
from .scorer import (
    ScoreCache,
    ScorerError,
    ScorerSpec,
    make_scorer,
    truth_map,
)
from .sets import (
    EvaluationReport,
    UncertaintySet,
    build_set,
    evaluate,
    predict,
)
from .sim import (
    CoverageReport,
    SyntheticConfig,
    generate_synthetic_dataset,
    run_coverage_experiment,
    summarize,
    synthetic_lexicon,
)

__version__ = "0.1.0"

__all__ = [
    "BallBudgetError",
    "BallSpec",
    "CalibrationExample",
    "CalibrationResult",
    "CoverageReport",
    "DatasetError",
    "EvaluationReport",
    "GroundTruthExplanation",
    "ImportanceScores",
    "RiskStep",
    "RobustUncertaintySet",
    "ScoreCache",
    "ScoredArrays",
    "ScorerError",
    "ScorerSpec",
    "SynonymLexicon",
    "SyntheticConfig",
    "TokenizedQuestion",
    "UncertaintySet",
    "adjusted_bound",
    "ball_size",
    "build_robust_set",
    "build_set",
    "calibrate_exact",
    "calibrate_grid",
    "evaluate",
    "evaluate_robust",
    "generate_synthetic_dataset",
    "inject_noise",
    "load_dataset",
    "load_lexicon",
    "loss",
    "make_scorer",
    "predict",
    "run_coverage_experiment",
    "split_dataset",
    "summarize",
    "synthetic_lexicon",
    "truth_map",
    "validate_example",
    "write_dataset",
]
