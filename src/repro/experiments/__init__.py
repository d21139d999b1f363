"""Experiment drivers: one module per table/figure of the paper.

Each driver loads on first use: ``repro table2`` needs the benchmark
registry, not the models and the trainer behind Table III (see
:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "common": (
        "ExperimentContext", "build_context", "majority_prior",
        "make_mvgnn_adapter", "make_static_gnn_adapter", "make_ncc_adapter",
        "make_view_adapter",
    ),
    "table2": ("table2_dataset_statistics",),
    "table3": ("table3_accuracy",),
    "table4": ("table4_npb_case_study",),
    "fig7": ("fig7_training_curves",),
    "fig8": ("fig8_view_importance",),
    "fig1": ("fig1_structural_patterns",),
})
