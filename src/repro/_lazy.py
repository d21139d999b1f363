"""Lazy package exports: a package names its public API up front and
imports the submodule behind a name only when that name is first used.

``from repro.dataset import LoopSample`` then loads ``repro.dataset.types``
alone, not the assembly, the process pool and the embeddings next to it.
Nothing is cached on the package: every access reads the submodule's
current binding, so a rebinding there is seen through the package too.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], List[str]]:
    """``(__getattr__, __all__)`` for ``package``; ``exports`` maps each
    submodule's short name to the public names it defines."""
    owner = {
        name: f"{package}.{module}"
        for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    return __getattr__, list(owner)
