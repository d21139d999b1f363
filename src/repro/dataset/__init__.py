"""Dataset pipeline: loop extraction, augmentation, balancing, splits.

Each name below is imported from its submodule on first use, so
``from repro.dataset import LoopSample`` does not load the assembly, the
process pool or the embeddings (see :mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "types": ("LoopSample", "LoopDataset"),
    "extraction": ("extract_loop_samples",),
    "transforms": (
        "op_substitution", "loop_order_modification", "dependence_injection",
        "TRANSFORM_NAMES", "apply_transform",
    ),
    "assemble": (
        "AssembledData", "DatasetConfig", "assemble_dataset",
        "balanced_subset", "build_extraction_tasks", "train_test_split",
    ),
    "parallel": (
        "AssemblyStats", "DropRecord", "ExtractionTask", "WorkerContext",
        "run_extraction_tasks",
    ),
})
