"""Computational Unit (CU) formation — the DiscoPoP CU-graph analogue."""

from repro.cu.builder import CU, build_cus, cu_index_by_instr

__all__ = ["CU", "build_cus", "cu_index_by_instr"]
