"""Docs stay honest: every module path, file path, CLI flag, and make
target they mention exists.

Run standalone via ``make docs-check``; also part of the tier-1 suite so
a refactor that renames a module, drops a ``--flag``, or removes a
Makefile target cannot leave docs/ pointing at ghosts.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

DOTTED_REF = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
PATH_REF = re.compile(
    r"\b(?:docs|src|tests|benchmarks|examples)/[A-Za-z0-9_./-]*[A-Za-z0-9_]"
)
MD_LINK = re.compile(r"\]\(([^)#]+)(?:#[^)]*)?\)")
LONG_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
MAKE_TARGET_REF = re.compile(r"\bmake\s+([a-z][a-z0-9-]*)")
ADD_ARGUMENT_FLAG = re.compile(r"""add_argument\(\s*['"](--[a-z][a-z0-9-]*)""")
MAKEFILE_TARGET = re.compile(r"^([A-Za-z][A-Za-z0-9_-]*)\s*:", re.MULTILINE)

#: long options in docs/ that belong to external tools, not this repo
#: (curl, pip, pytest-benchmark, argparse's built-in help)
EXTERNAL_FLAGS = {
    "--benchmark-only",   # pytest-benchmark
    "--data",             # curl
    "--no-build-isolation",  # pip
    "--help",             # argparse built-in
}


def _repo_cli_flags():
    """Every long option any ``repro`` subcommand accepts, via the real
    parser (so renames in cli.py are caught, not just deletions)."""
    from repro.cli import build_parser

    flags = set()
    stack = [build_parser()]
    while stack:
        parser = stack.pop()
        for action in parser._actions:
            flags.update(
                opt for opt in action.option_strings if opt.startswith("--")
            )
            if hasattr(action, "choices") and isinstance(action.choices, dict):
                stack.extend(
                    sub for sub in action.choices.values()
                    if hasattr(sub, "_actions")
                )
    return flags


def _benchmark_flags():
    """Long options declared by the standalone benchmark drivers."""
    flags = set()
    for path in (REPO_ROOT / "benchmarks").glob("*.py"):
        flags.update(ADD_ARGUMENT_FLAG.findall(path.read_text()))
    return flags


def _makefile_targets():
    return set(MAKEFILE_TARGET.findall((REPO_ROOT / "Makefile").read_text()))


def _doc_ids():
    return [path.relative_to(REPO_ROOT).as_posix() for path in DOC_FILES]


def _resolve_dotted(ref: str) -> bool:
    """True when ``ref`` is an importable module or an attribute of one."""
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_docs_exist():
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").is_file()
    assert (REPO_ROOT / "docs" / "RUNTIME.md").is_file()


def test_readme_links_docs():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/RUNTIME.md" in readme


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_dotted_references_resolve(doc):
    text = doc.read_text()
    bad = sorted(
        {ref for ref in DOTTED_REF.findall(text) if not _resolve_dotted(ref)}
    )
    assert not bad, (
        f"{doc.name} references nonexistent module paths: {bad}"
    )


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_file_paths_exist(doc):
    text = doc.read_text()
    bad = sorted(
        {
            ref
            for ref in PATH_REF.findall(text)
            if not (REPO_ROOT / ref).exists()
        }
    )
    assert not bad, f"{doc.name} references nonexistent files: {bad}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_cli_flags_exist(doc):
    """Every ``--flag`` a doc names is a real option of the repro CLI, a
    benchmark driver, or a declared external tool."""
    known = _repo_cli_flags() | _benchmark_flags() | EXTERNAL_FLAGS
    text = doc.read_text()
    bad = sorted(set(LONG_FLAG.findall(text)) - known)
    assert not bad, (
        f"{doc.name} documents flags no CLI or benchmark accepts: {bad} "
        f"(external-tool flags go in EXTERNAL_FLAGS)"
    )


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_make_targets_exist(doc):
    targets = _makefile_targets()
    text = doc.read_text()
    bad = sorted(set(MAKE_TARGET_REF.findall(text)) - targets)
    assert not bad, (
        f"{doc.name} references make targets missing from the Makefile: "
        f"{bad}"
    )


RULE_ID = re.compile(r"\b(?:IR|PEG|GR|DS|AD)\d{3}\b")


def test_lint_rule_catalog_is_complete():
    """docs/LINT.md documents every registered lint rule, and no doc
    anywhere mentions a rule ID the analyzer does not register — so
    adding GR007 without a catalog row, or dropping a rule while its row
    lingers, fails docs-check."""
    import repro.lint  # noqa: F401  (registers every rule module)
    from repro.lint.core import _REGISTRY

    registered = set(_REGISTRY)
    catalog = (REPO_ROOT / "docs" / "LINT.md").read_text()
    rows = {
        match for match in RULE_ID.findall(catalog)
        if f"| {match} |" in catalog
    }
    undocumented = sorted(registered - rows)
    assert not undocumented, (
        f"registered lint rules missing a docs/LINT.md catalog row: "
        f"{undocumented}"
    )
    for doc in DOC_FILES:
        ghost = sorted(set(RULE_ID.findall(doc.read_text())) - registered)
        assert not ghost, (
            f"{doc.name} mentions unregistered lint rule IDs: {ghost}"
        )


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_relative_markdown_links_resolve(doc):
    text = doc.read_text()
    bad = []
    for target in MD_LINK.findall(text):
        if "://" in target or target.startswith("mailto:"):
            continue
        if not (doc.parent / target).exists():
            bad.append(target)
    assert not bad, f"{doc.name} has dead relative links: {bad}"
