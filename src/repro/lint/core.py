"""Core lint framework: findings, severities, rule registry, reporters.

Every check in :mod:`repro.lint` is a :class:`Rule` registered under a
stable ID (``IR001``, ``PEG002``, ``DS005``, ...).  Rules emit
:class:`Finding` objects; a :class:`LintReport` aggregates them and maps
to process exit codes.  Suppressions are by rule ID (exact, e.g.
``DS003``) or by layer prefix (e.g. ``PEG``), supplied either via
:class:`LintConfig` or the CLI ``--suppress`` flag.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class Severity(enum.IntEnum):
    """Finding severity; ordering is meaningful (ERROR > WARNING > INFO)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True)
class Finding:
    """A single lint diagnostic.

    ``where`` locates the artifact (e.g. ``"ir:prog/fn/bb3"``,
    ``"sample:EP/O0/main:L0"``); ``details`` carries machine-readable
    context for the JSON reporter and the serve 422 payload.
    """

    rule_id: str
    severity: Severity
    where: str
    message: str
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.name,
            "where": self.where,
            "message": self.message,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class Rule:
    """Registered rule metadata; the check itself lives in the rule module."""

    rule_id: str
    layer: str  # "ir" | "peg" | "graph" | "dataset"
    severity: Severity  # default severity for the rule's findings
    summary: str


_REGISTRY: Dict[str, Rule] = {}


def rule(rule_id: str, layer: str, severity: Severity, summary: str) -> Rule:
    """Register a rule ID.  IDs are unique; double registration is a bug."""
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate lint rule id: {rule_id}")
    r = Rule(rule_id=rule_id, layer=layer, severity=severity, summary=summary)
    _REGISTRY[rule_id] = r
    return r


@dataclass(frozen=True)
class LintConfig:
    """Knobs shared by all lint entry points.

    ``suppress`` entries match a finding when they equal its rule ID or
    are a prefix ending at the numeric part (``"PEG"`` suppresses every
    ``PEG0xx`` rule).  ``strict`` promotes WARNING findings to failures
    in :meth:`LintReport.exit_code` (the findings themselves keep their
    severity).  ``quick`` lets expensive rules (the label cross-check)
    skip work that is out of a CI budget.
    """

    suppress: Tuple[str, ...] = ()
    strict: bool = False
    quick: bool = False

    def suppressed(self, rule_id: str) -> bool:
        for pat in self.suppress:
            if rule_id == pat or (pat and not pat[-1].isdigit() and rule_id.startswith(pat)):
                return True
        return False


class LintReport:
    """Mutable collector for findings with suppression applied at emit."""

    def __init__(self, config: Optional[LintConfig] = None) -> None:
        self.config = config or LintConfig()
        self.findings: List[Finding] = []
        self.suppressed_count = 0
        self.stats: Dict[str, Any] = {}  # free-form, e.g. DS005 coverage
        # per-rule instrumentation: {"checked": n, "fired": n, "wall_ms": x}
        self.rule_stats: Dict[str, Dict[str, Any]] = {}

    def _rule_entry(self, rule_id: str) -> Dict[str, Any]:
        return self.rule_stats.setdefault(
            rule_id, {"checked": 0, "fired": 0, "wall_ms": 0.0}
        )

    def note_rule(
        self, rule_id: str, checked: int = 0, wall_ms: float = 0.0
    ) -> None:
        """Attribute ``checked`` artifact-units and wall time to a rule.
        ``fired`` counts accumulate automatically in :meth:`emit`."""
        entry = self._rule_entry(rule_id)
        entry["checked"] += checked
        entry["wall_ms"] += wall_ms

    def emit(
        self,
        rule_obj: Rule,
        where: str,
        message: str,
        details: Optional[Mapping[str, Any]] = None,
        severity: Optional[Severity] = None,
    ) -> Optional[Finding]:
        """Record a finding for ``rule_obj`` unless it is suppressed."""
        if self.config.suppressed(rule_obj.rule_id):
            self.suppressed_count += 1
            return None
        self._rule_entry(rule_obj.rule_id)["fired"] += 1
        f = Finding(
            rule_id=rule_obj.rule_id,
            severity=severity if severity is not None else rule_obj.severity,
            where=where,
            message=message,
            details=dict(details or {}),
        )
        self.findings.append(f)
        return f

    def extend(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed_count += other.suppressed_count
        self.stats.update(other.stats)
        for rule_id, entry in other.rule_stats.items():
            mine = self._rule_entry(rule_id)
            mine["checked"] += entry["checked"]
            mine["fired"] += entry["fired"]
            mine["wall_ms"] += entry["wall_ms"]

    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Finding]:
        return self.by_severity(Severity.WARNING)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.severity.name] = out.get(f.severity.name, 0) + 1
        return out

    def exit_code(self) -> int:
        """0 = clean, 1 = findings at failing severity (ERROR; WARNING too
        under ``strict``)."""
        if self.errors:
            return 1
        if self.config.strict and self.warnings:
            return 1
        return 0

    def ok(self) -> bool:
        return self.exit_code() == 0


def render_text(report: LintReport) -> str:
    """Human-readable report, one line per finding, sorted for stability."""
    lines: List[str] = []
    order = sorted(
        report.findings, key=lambda f: (-int(f.severity), f.rule_id, f.where, f.message)
    )
    for f in order:
        lines.append(f"{f.severity.name:7s} {f.rule_id} {f.where}: {f.message}")
    counts = report.counts()
    summary = ", ".join(f"{counts[k]} {k.lower()}" for k in ("ERROR", "WARNING", "INFO") if k in counts)
    if not summary:
        summary = "clean"
    tail = f"lint: {summary}"
    if report.suppressed_count:
        tail += f" ({report.suppressed_count} suppressed)"
    lines.append(tail)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (stable key order, sorted findings)."""
    order = sorted(
        report.findings, key=lambda f: (-int(f.severity), f.rule_id, f.where, f.message)
    )
    stats = dict(report.stats)
    stats["rules"] = {
        rule_id: {
            "checked": entry["checked"],
            "fired": entry["fired"],
            "wall_ms": round(entry["wall_ms"], 3),
        }
        for rule_id, entry in sorted(report.rule_stats.items())
    }
    payload = {
        "findings": [f.to_dict() for f in order],
        "counts": report.counts(),
        "suppressed": report.suppressed_count,
        "stats": stats,
        "ok": report.ok(),
        "exit_code": report.exit_code(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def findings_to_wire(findings: Sequence[Finding]) -> List[Dict[str, Any]]:
    """Findings as plain dicts for HTTP payloads (serve 422 responses)."""
    return [f.to_dict() for f in findings]
