"""Every call the traced benchmark run wraps must exist in ``src/``.

``perfbench/layers.py::DECLARATIONS`` names each wrapped target as
``"pkg.module:Class.attr"``.  The traced run resolves it with
``perfbench/tracer.py::_resolve``: import the module, walk the attribute
path, and look a class member up in the class's *own* ``__dict__``, so a
method that a subclass merely inherits does not resolve.  A rename in
``src/`` would otherwise surface only as a failed benchmark run.

The targets are read from the source of ``layers.py`` (it imports its
siblings as top-level modules), and ``_resolve`` is the benchmark's own,
loaded from ``tracer.py`` without putting ``perfbench/`` on ``sys.path``.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _declared_targets():
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "DECLARATIONS"
        ):
            return [
                entry.elts[1].value
                for entry in node.value.elts
                if isinstance(entry, ast.Tuple)
            ]
    raise AssertionError("perfbench/layers.py declares no DECLARATIONS list")


def _load_tracer():
    name = "perfbench_tracer"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, PERFBENCH / "tracer.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


TARGETS = _declared_targets()


def test_declarations_found():
    assert len(TARGETS) > 10
    assert all(":" in target for target in TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_declared_target_resolves(target):
    owner, attr, raw = _load_tracer()._resolve(target)
    func = getattr(raw, "__func__", raw)
    assert callable(func), f"{target} resolves to a non-callable {raw!r}"
