"""Import budget: an entry point loads only the layers it runs.

Each check starts a fresh interpreter, so modules the test session has
already imported cannot hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: layers a one-shot command imports only inside the handler that runs them
HEAVY = (
    "networkx", "scipy", "repro.experiments", "repro.nn", "repro.train",
    "repro.serve", "repro.runtime",
)


def loaded_after(code: str) -> set:
    """Top-level module names in ``sys.modules`` after running ``code``."""
    script = (
        "import json, sys\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "except SystemExit:\n"
        "    pass\n"
        "sys.__stdout__.write('\\n' + json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_heavy_layer():
    loaded = loaded_after("import repro.cli")
    assert "repro.cli" in loaded
    assert not loaded.intersection(HEAVY)


def test_advisor_driver_import_loads_no_networkx():
    loaded = loaded_after("import repro.advisor.driver")
    assert "repro.advisor.driver" in loaded
    assert "networkx" not in loaded


def test_dataset_types_import_skips_assembly():
    # the lint and advise paths need the sample types, not the pool
    loaded = loaded_after("import repro.dataset.types")
    assert not loaded.intersection(
        {"repro.dataset.assemble", "repro.dataset.parallel",
         "concurrent.futures", "multiprocessing"}
    )


def test_profiler_import_skips_estimator_tools_and_analyses():
    # the static estimator's tools import every analysis module
    loaded = loaded_after("from repro.profiler import profile_program")
    assert "repro.profiler.interpreter" in loaded
    assert not {
        name for name in loaded
        if name.split(".")[:2] in (["repro", "analysis"], ["repro", "tools"])
    }
    assert "repro.profiler.static_estimator" not in loaded


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["classify", "--help"],
    ["classify", "--app", "no-such-app"],
    ["no-such-command"],
])
def test_help_and_argument_errors_load_no_numpy(argv):
    loaded = loaded_after(f"from repro.cli import main\nmain({argv!r})")
    assert not loaded.intersection(HEAVY + ("numpy", "repro.analysis"))


def test_package_exports_resolve():
    """Every name a lazily exporting package lists resolves."""
    import repro.benchsuite
    import repro.dataset
    import repro.experiments
    import repro.profiler

    for package in (repro.benchsuite, repro.dataset, repro.experiments,
                    repro.profiler):
        for name in package.__all__:
            assert getattr(package, name) is not None, (package.__name__, name)
    with pytest.raises(AttributeError):
        repro.dataset.no_such_name
