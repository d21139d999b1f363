"""Synthetic re-creations of the paper's benchmark applications (Table II).

The 14 applications (NPB BT/SP/LU/IS/EP/CG/MG/FT, PolyBench 2mm/jacobi-2d/
syr2k/trmm, BOTS fib/nqueens) are composed from a library of loop-nest
templates whose dependence structures mirror the originals' (stencils,
reductions, triangular solves, recurrences, indirect accesses, task-style
recursion).  Per-application loop counts match Table II exactly, enforced by
a registry check.
"""

from repro._lazy import lazy_exports

# names load on first use: the CLI reads ``app_names`` without paying for
# numpy and the template library
__getattr__, __all__ = lazy_exports(__name__, {
    "base": ("AppSpec", "LabeledLoop"),
    "templates": ("TEMPLATES", "TemplateContext"),
    "registry": (
        "TABLE_II_COUNTS", "SUITE_OF_APP",
        "build_app", "build_all_apps", "app_names",
    ),
})
