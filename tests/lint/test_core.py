"""Lint framework core: registry, findings, suppressions, reporters,
exit-code mapping."""

import json

import pytest

from repro.lint.core import (
    Finding,
    LintConfig,
    LintReport,
    Severity,
    _REGISTRY,
    findings_to_wire,
    render_json,
    render_text,
    rule,
)


class TestRegistry:
    def test_all_expected_rules_registered(self):
        ids = set(_REGISTRY)
        expected = {
            "IR001", "IR002", "IR003",
            "PEG001", "PEG002", "PEG003", "PEG004", "PEG005",
            "GR001", "GR002", "GR003", "GR004", "GR005",
            "DS001", "DS002", "DS003", "DS004", "DS005",
        }
        assert expected <= ids

    def test_rules_sorted_and_described(self):
        for rule_id, r in _REGISTRY.items():
            assert r.rule_id == rule_id
            assert r.summary and r.layer
            assert isinstance(r.severity, Severity)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            rule("IR001", "ir", Severity.ERROR, "again")

    def test_get_rule(self):
        assert _REGISTRY["DS005"].layer == "dataset"


class TestSeverityAndExitCodes:
    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO

    def _report(self, severity, strict=False):
        report = LintReport(LintConfig(strict=strict))
        report.emit(_REGISTRY["DS003"], "x", "msg", severity=severity)
        return report

    def test_error_fails(self):
        assert self._report(Severity.ERROR).exit_code() == 1

    def test_warning_passes_unless_strict(self):
        assert self._report(Severity.WARNING).exit_code() == 0
        assert self._report(Severity.WARNING, strict=True).exit_code() == 1

    def test_clean_is_zero(self):
        report = LintReport()
        assert report.exit_code() == 0 and report.ok()


class TestSuppression:
    def test_exact_id(self):
        config = LintConfig(suppress=("DS003",))
        assert config.suppressed("DS003")
        assert not config.suppressed("DS004")

    def test_layer_prefix(self):
        config = LintConfig(suppress=("PEG",))
        assert config.suppressed("PEG001") and config.suppressed("PEG005")
        assert not config.suppressed("DS001")

    def test_numeric_pattern_is_not_a_prefix(self):
        # "DS00" ends in a digit: exact-match only, no prefix semantics
        config = LintConfig(suppress=("DS00",))
        assert not config.suppressed("DS001")

    def test_suppressed_findings_counted_not_recorded(self):
        report = LintReport(LintConfig(suppress=("DS003",)))
        assert report.emit(_REGISTRY["DS003"], "x", "msg") is None
        assert report.findings == []
        assert report.suppressed_count == 1
        assert report.exit_code() == 0


class TestReportMechanics:
    def test_emit_uses_rule_default_severity(self):
        report = LintReport()
        f = report.emit(_REGISTRY["DS001"], "sample:x", "dup")
        assert f.severity is Severity.ERROR

    def test_severity_override(self):
        report = LintReport()
        f = report.emit(
            _REGISTRY["DS001"], "x", "m", severity=Severity.WARNING
        )
        assert f.severity is Severity.WARNING

    def test_extend_merges_findings_and_stats(self):
        a, b = LintReport(), LintReport()
        a.emit(_REGISTRY["DS001"], "x", "m")
        b.emit(_REGISTRY["DS002"], "y", "n")
        b.stats["crossval"] = {"judged": 3}
        a.extend(b)
        assert [f.rule_id for f in a.findings] == ["DS001", "DS002"]
        assert a.stats["crossval"]["judged"] == 3

    def test_counts_and_accessors(self):
        report = LintReport()
        report.emit(_REGISTRY["DS001"], "x", "m")
        report.emit(_REGISTRY["DS003"], "y", "n")
        assert report.counts() == {"ERROR": 1, "WARNING": 1}
        assert len(report.errors) == 1 and len(report.warnings) == 1


class TestReporters:
    def _report(self):
        report = LintReport()
        report.emit(_REGISTRY["DS003"], "dataset:d", "unbalanced")
        report.emit(_REGISTRY["DS001"], "sample:x", "dup", {"index": 4})
        return report

    def test_text_sorted_by_severity_then_id(self):
        lines = render_text(self._report()).splitlines()
        assert lines[0].startswith("ERROR") and "DS001" in lines[0]
        assert lines[1].startswith("WARNING") and "DS003" in lines[1]
        assert lines[-1] == "lint: 1 error, 1 warning"

    def test_text_clean(self):
        assert render_text(LintReport()) == "lint: clean"

    def test_json_round_trips(self):
        payload = json.loads(render_json(self._report()))
        assert payload["ok"] is False and payload["exit_code"] == 1
        assert payload["counts"] == {"ERROR": 1, "WARNING": 1}
        first = payload["findings"][0]
        assert first["rule_id"] == "DS001"
        assert first["details"] == {"index": 4}

    def test_findings_to_wire_plain_dicts(self):
        wire = findings_to_wire(self._report().findings)
        assert all(isinstance(f, dict) for f in wire)
        json.dumps(wire)  # JSON-serializable as-is

    def test_finding_to_dict(self):
        f = Finding("IR001", Severity.ERROR, "ir:f/bb", "unreachable")
        assert f.to_dict()["severity"] == "ERROR"
