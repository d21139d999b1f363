"""Dynamic profiler: the DiscoPoP-phase-1 analogue.

Interprets LinearIR with shadow memory, recording RAW/WAR/WAW data
dependences with exact loop-carried attribution, per-loop iteration counts,
and per-instruction execution counts — the same artefacts DiscoPoP phase 1
extracts from instrumented binaries (see DESIGN.md).

Each name below is imported from its submodule on first use (see
:mod:`repro._lazy`), so ``from repro.profiler import profile_program`` does
not load the static estimator and the tools and analyses behind it.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "report": ("DepKind", "DepInfo", "LoopStats", "ProfileReport", "InstrKey"),
    "shadow": ("ShadowMemory",),
    "interpreter": ("Interpreter", "profile_program"),
    "static_info": ("cfg_edges", "predecessors", "block_loop_map"),
    # the estimator imports the tools and, through them, every analysis
    "static_estimator": ("estimate_profile", "estimate_trip_count"),
})
