"""The reference kernel must measure the host, never the program.

Run with ``python3 -m pytest perfbench/test_kernel.py``.
"""

import ast
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _imported_modules(path: Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_kernel_source_imports_nothing_from_repro():
    names = list(_imported_modules(HERE / "kernel.py"))
    assert names, "kernel.py should import at least numpy"
    assert not [n for n in names if n == "repro" or n.startswith("repro.")]


def test_kernel_loads_no_repro_module_at_runtime():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import kernel; "
        "kernel.kernel_sample(1); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(HERE)],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert out == "[]"
