"""latefuse: late-integration ensemble learning for multi-modal, multi-class
tabular data.

The package covers the full benchmark pipeline: per-modality CSV ingestion
and alignment, fold-local preprocessing (filtering, kNN imputation,
normalization, SMOTE), in-repo base learners (CART, multiclass GBM, random
forest), nine integration strategies, all-relevant feature selection with
stability scoring, incremental modality-subset selection, and a repeated-CV
benchmark harness with corrected significance testing.
"""

from .data import (
    DataError,
    FoldPlan,
    ModalityTable,
    MultiModalDataset,
    load_dataset,
    make_fold_plan,
)
from .evaluation import (
    EvaluationReport,
    MetricSet,
    compute_metrics,
    corrected_ttest,
    macro_f1,
    run_cv_benchmark,
)
from .feature_selection import (
    BorutaParams,
    BorutaResult,
    FeatureSignature,
    StabilityReport,
    aggregate_boosted_importance,
    boruta_select,
    select_signature,
    stability_cwrel,
)
from .integrators import (
    GateDecision,
    IntegrationError,
    IntegratorSpec,
    adaboost_high_confidence,
    fit_integrator,
    incremental_select,
    moe_gate,
    score_modality_subset,
    vote_hard,
    vote_soft,
)
from .learners import (
    GbmModel,
    GbmParams,
    PredictionSet,
    RandomForestModel,
    RandomForestParams,
    TreeParams,
    fit_gbm,
    fit_random_forest,
    fit_tree,
)
from .preprocess import (
    FittedPreprocessor,
    PreprocessConfig,
    PreprocessError,
    filter_sparse,
    fit_preprocessor,
    impute_knn,
    normalize,
    prune_correlated,
    smote_balance_tables,
    variance_topk,
)
from .synth import ModalitySpec, SynthSpec, generate, save_dataset

__version__ = "0.1.0"
