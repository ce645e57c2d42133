"""Exchange-invariant evaluation of binary decision rules.

LxCIM scores a scored binary classifier by how well it decides, not by which
class it favours: it is twice the area under the cumulative accuracy curve of
the decision-confidence sweep, and it is invariant when any subset of samples
has its class exchanged across the decision threshold.  The package also
provides AUDRC (confidence-weighted running accuracy), classic weighted
accuracy and AUROC, the exchange transform and dataset duplication, a
brute-force AUROC oracle, invariance checkers, synthetic generators, and file
ingestion.
"""

from .errors import (
    EmptyDatasetError,
    InfeasiblePerturbationError,
    InvalidMaskError,
    LxcimError,
    NonFiniteMapError,
    NonFiniteValueError,
    NonPositiveWeightError,
    ParseError,
    PredictionFileError,
    SingleClassError,
    UnknownLabelError,
)
from .exchange import (
    ExchangeMask,
    ExchangeWitness,
    InvarianceReport,
    PerturbationWitness,
    check_categorical_lxc_invariance,
    check_rank_lxc_invariance,
    duplicate_dataset,
    exchange_subset,
    f1_score,
    matthews_corrcoef,
    perturb_confusion,
)
from .io import ingest, read_prediction_rows, write_curve_csv, write_prediction_file
from .metrics import (
    ConfusionMatrix,
    Curve,
    CurveKind,
    MetricsReport,
    accuracy,
    accuracy_rate_curve,
    audrc,
    auroc,
    confusion_matrix,
    cumulative_accuracy_curve,
    lxcim,
    report,
    roc_curve,
)
from .model import (
    Dataset,
    DecisionSpec,
    RankedView,
    SpecValidationReport,
    SpecViolation,
    make_abs_spec,
    predict,
    rank_by_confidence,
    validate_decision_spec,
)
from .verify import (
    CrossingReport,
    DoublingReport,
    GeneratorConfig,
    GeneratorKind,
    StudyResult,
    StudySizeResult,
    WeightMode,
    brute_auroc,
    convergence_study,
    generate,
    verify_crossing_point,
    verify_doubling_identity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Dataset",
    "DecisionSpec",
    "RankedView",
    "SpecViolation",
    "SpecValidationReport",
    "predict",
    "make_abs_spec",
    "validate_decision_spec",
    "rank_by_confidence",
    # metrics
    "ConfusionMatrix",
    "Curve",
    "CurveKind",
    "MetricsReport",
    "confusion_matrix",
    "accuracy",
    "roc_curve",
    "auroc",
    "cumulative_accuracy_curve",
    "lxcim",
    "accuracy_rate_curve",
    "audrc",
    "report",
    # exchange
    "ExchangeMask",
    "ExchangeWitness",
    "InvarianceReport",
    "PerturbationWitness",
    "exchange_subset",
    "duplicate_dataset",
    "check_rank_lxc_invariance",
    "perturb_confusion",
    "check_categorical_lxc_invariance",
    "f1_score",
    "matthews_corrcoef",
    # verify
    "GeneratorKind",
    "WeightMode",
    "GeneratorConfig",
    "DoublingReport",
    "CrossingReport",
    "StudySizeResult",
    "StudyResult",
    "brute_auroc",
    "verify_doubling_identity",
    "verify_crossing_point",
    "generate",
    "convergence_study",
    # io
    "ingest",
    "read_prediction_rows",
    "write_prediction_file",
    "write_curve_csv",
    # errors
    "LxcimError",
    "EmptyDatasetError",
    "SingleClassError",
    "InvalidMaskError",
    "InfeasiblePerturbationError",
    "NonFiniteMapError",
    "PredictionFileError",
    "ParseError",
    "UnknownLabelError",
    "NonPositiveWeightError",
    "NonFiniteValueError",
]
