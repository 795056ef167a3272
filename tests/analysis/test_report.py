"""Schema and report-container tests for repro.analysis.report."""

import json

import pytest

from repro.analysis import (
    ANALYSIS_SCHEMA,
    ANALYSIS_SCHEMA_VERSION,
    AnalysisReport,
    Finding,
    validate_analysis_document,
)
from repro.analysis.report import SubjectReport
from repro.util.errors import AnalysisError, SchemaVersionError


def make_report(with_finding=False) -> AnalysisReport:
    report = AnalysisReport(meta={"subject": "unit", "scale": 0.1})
    s = report.subject("unit/structure")
    s.stats["n_checked"] = 3
    if with_finding:
        s.findings.append(
            Finding(
                check="forest.parent_monotone",
                message="parent(3) = 1 violates parent(j) > j",
                tasks=("F(3)",),
                region="panel 3",
                detail={"node": 3, "parent": 1},
            )
        )
    return report


#: A version-1 document as the v1 emitter wrote it for
#: ``make_report(with_finding=True)`` — v1 is no longer emitted, but the
#: validator must keep reading what is already on disk.
V1_DOCUMENT = {
    "schema": "repro.analysis",
    "schema_version": 1,
    "ok": False,
    "meta": {"subject": "unit", "scale": 0.1},
    "subjects": [
        {
            "name": "unit/structure",
            "stats": {"n_checked": 3},
            "findings": [
                {
                    "check": "forest.parent_monotone",
                    "message": "parent(3) = 1 violates parent(j) > j",
                    "tasks": ["F(3)"],
                    "region": "panel 3",
                    "detail": {"node": 3, "parent": 1},
                }
            ],
        }
    ],
}


class TestReportContainers:
    def test_clean_report_is_ok(self):
        report = make_report()
        assert report.ok
        assert report.n_findings == 0
        assert "0 finding(s)" in report.render()

    def test_findings_flip_ok(self):
        report = make_report(with_finding=True)
        assert not report.ok
        assert report.n_findings == 1
        assert "FAIL" in report.render()
        assert "forest.parent_monotone" in report.render()

    def test_subject_get_or_create(self):
        report = AnalysisReport()
        a = report.subject("x")
        b = report.subject("x")
        assert a is b
        assert len(report.subjects) == 1

    def test_finding_str_includes_context(self):
        f = Finding(
            check="race.unordered_pair",
            message="tasks race",
            tasks=("F(1)", "U(0,1)"),
            region="panel 1",
        )
        text = str(f)
        assert "race.unordered_pair" in text
        assert "F(1)" in text and "panel 1" in text


class TestSchemaValidation:
    def test_clean_document_validates(self):
        doc = make_report().as_dict()
        assert validate_analysis_document(doc) == []
        assert doc["schema"] == ANALYSIS_SCHEMA
        assert doc["schema_version"] == ANALYSIS_SCHEMA_VERSION

    def test_document_with_findings_validates(self):
        doc = make_report(with_finding=True).as_dict()
        assert validate_analysis_document(doc) == []
        assert doc["ok"] is False

    def test_document_is_json_round_trippable(self):
        doc = make_report(with_finding=True).as_dict()
        assert json.loads(json.dumps(doc)) == doc

    def test_wrong_schema_name(self):
        doc = make_report().as_dict()
        doc["schema"] = "repro.bench"
        assert any("$.schema" in e for e in validate_analysis_document(doc))

    def test_future_version_raises_typed_error(self):
        doc = make_report().as_dict()
        doc["schema_version"] = ANALYSIS_SCHEMA_VERSION + 1
        with pytest.raises(SchemaVersionError) as exc_info:
            validate_analysis_document(doc)
        assert str(ANALYSIS_SCHEMA_VERSION + 1) in str(exc_info.value)

    def test_schema_version_error_is_analysis_error(self):
        # Callers catching the analysis-error family must also see
        # version mismatches — they are analysis failures, not crashes.
        assert issubclass(SchemaVersionError, AnalysisError)

    def test_malformed_version_is_error_string_not_raise(self):
        # A non-int version is a *malformed* document (string error), not
        # an unknown-but-well-formed version (typed raise).
        doc = make_report().as_dict()
        doc["schema_version"] = "two"
        assert any(
            "$.schema_version" in e for e in validate_analysis_document(doc)
        )
        doc["schema_version"] = True
        assert any(
            "$.schema_version" in e for e in validate_analysis_document(doc)
        )

    def test_ok_must_match_findings(self):
        doc = make_report(with_finding=True).as_dict()
        doc["ok"] = True
        assert any("$.ok" in e for e in validate_analysis_document(doc))

    def test_non_scalar_meta_rejected(self):
        doc = make_report().as_dict()
        doc["meta"]["options"] = ("mindeg", True)
        assert any("$.meta" in e for e in validate_analysis_document(doc))

    def test_finding_missing_keys_rejected(self):
        doc = make_report(with_finding=True).as_dict()
        del doc["subjects"][0]["findings"][0]["region"]
        assert any("missing keys" in e for e in validate_analysis_document(doc))

    def test_finding_bad_tasks_rejected(self):
        doc = make_report(with_finding=True).as_dict()
        doc["subjects"][0]["findings"][0]["tasks"] = [1, 2]
        assert any(".tasks" in e for e in validate_analysis_document(doc))

    def test_non_dict_document_rejected(self):
        assert validate_analysis_document([1, 2]) != []

    def test_subject_report_ok_property(self):
        s = SubjectReport(name="x")
        assert s.ok
        s.findings.append(Finding(check="c", message="m"))
        assert not s.ok


class TestSchemaVersions:
    def test_v2_document_carries_modes(self):
        report = make_report()
        report.modes = ["static", "sanitize"]
        doc = report.as_dict()
        assert doc["schema_version"] == 2
        assert doc["modes"] == ["static", "sanitize"]
        assert validate_analysis_document(doc) == []

    def test_v1_document_omits_modes_and_validates(self):
        assert V1_DOCUMENT["schema_version"] == 1
        assert "modes" not in V1_DOCUMENT
        assert validate_analysis_document(V1_DOCUMENT) == []

    def test_v1_v2_round_trip_same_payload(self):
        # Other than the version stamp and the modes list, the stored v1
        # document and today's emission of the same report are identical.
        v2 = json.loads(json.dumps(make_report(with_finding=True).as_dict()))
        assert validate_analysis_document(v2) == []
        assert v2.pop("modes") == ["static"]
        v2["schema_version"] = 1
        assert v2 == V1_DOCUMENT

    def test_v2_requires_nonempty_modes(self):
        doc = make_report().as_dict()
        doc["modes"] = []
        assert any("$.modes" in e for e in validate_analysis_document(doc))
        doc["modes"] = ["static", 7]
        assert any("$.modes" in e for e in validate_analysis_document(doc))
        del doc["modes"]
        assert any("$.modes" in e for e in validate_analysis_document(doc))

    def test_emit_unsupported_version_raises(self):
        # Only the current schema is emitted: there is no version to pick.
        with pytest.raises(TypeError):
            make_report().as_dict(version=1)

    def test_merge_combines_subjects_meta_and_modes(self):
        a = AnalysisReport(meta={"matrix": "sherman3"}, modes=["static"])
        a.subject("sherman3/structure")
        b = AnalysisReport(meta={"engine": "proc"}, modes=["sanitize", "static"])
        b.subject("sherman3/sanitize-proc").findings.append(
            Finding(check="sanitizer.write_escape", message="row out of footprint")
        )
        a.merge(b)
        assert [s.name for s in a.subjects] == [
            "sherman3/structure",
            "sherman3/sanitize-proc",
        ]
        assert a.meta == {"matrix": "sherman3", "engine": "proc"}
        assert a.modes == ["static", "sanitize"]  # deduplicated, order-stable
        assert not a.ok
        assert validate_analysis_document(a.as_dict()) == []
