"""Findings, reports, and the versioned ``repro.analysis`` JSON schema.

Every checker in :mod:`repro.analysis` reports problems as
:class:`Finding` objects — one finding is one violated invariant, carrying
the check name, a human-readable message, and enough structured detail
(tasks, region, suggested edge) to act on it. A clean subject produces
*zero* findings; informational results (edge counts, false-dependence
statistics) travel in :attr:`AnalysisReport.stats`, never as findings, so
"no findings" is exactly the CI gate condition.

Document layout (``repro.analysis`` version 2)::

    {
      "schema": "repro.analysis",
      "schema_version": 2,
      "ok": bool,                      # no findings anywhere
      "modes": [str, ...],             # v2: analysis passes that ran, e.g.
                                       # ["static"], ["modelcheck", "sanitize"]
      "meta": {<free-form scalars: matrix, scale, options, ...>},
      "subjects": [
        {"name": str,                  # e.g. "sherman3" or "eforest-graph"
         "stats": {str: scalar},
         "findings": [
           {"check": str, "message": str,
            "tasks": [str, ...],       # involved task labels, may be empty
            "region": str,             # overlapping region, "" when n/a
            "detail": {str: scalar}},
           ...
         ]},
        ...
      ]
    }

Version 1 is identical minus the ``modes`` list. Only the current
version is emitted; :func:`validate_analysis_document` still reads both
(dispatching on
``schema_version``) and *raises* :class:`~repro.util.errors.
SchemaVersionError` for any version outside
:data:`SUPPORTED_ANALYSIS_VERSIONS` — an unknown version means the layout
rules below do not apply, so a stale validator must fail loudly rather
than return a misleading pass/fail.

The schema is validated by the hand-rolled structural checker
:func:`validate_analysis_document`, exactly like
:func:`repro.obs.export.validate_bench_document` — no external jsonschema
dependency. Any layout change MUST bump :data:`ANALYSIS_SCHEMA_VERSION`
here and in ``docs/analysis.md`` (migration notes live in
``docs/observability.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

from repro.util.errors import SchemaVersionError

#: Name + version stamped into every analysis document.
ANALYSIS_SCHEMA = "repro.analysis"
ANALYSIS_SCHEMA_VERSION = 2

#: Versions :func:`validate_analysis_document` knows how to check.
SUPPORTED_ANALYSIS_VERSIONS = (1, 2)

Scalar = Union[str, int, float, bool, None]

_SCALARS = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class Finding:
    """One violated invariant.

    Attributes
    ----------
    check:
        Dotted name of the failed check (catalog in ``docs/analysis.md``),
        e.g. ``"race.unordered_pair"`` or ``"forest.parent_monotone"``.
    message:
        One-line human-readable description.
    tasks:
        Labels of the tasks involved (both endpoints of a race, the cycle
        members of a deadlock); empty for structural findings.
    region:
        The overlapping memory region of a race (e.g. ``"panel 7, block
        rows {9}"``); empty when not applicable.
    detail:
        Additional scalar context — for races this includes
        ``suggested_edge``, the dependence whose addition would serialize
        the pair.
    """

    check: str
    message: str
    tasks: tuple[str, ...] = ()
    region: str = ""
    detail: dict[str, Scalar] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "check": self.check,
            "message": self.message,
            "tasks": list(self.tasks),
            "region": self.region,
            "detail": dict(self.detail),
        }

    def __str__(self) -> str:
        parts = [f"[{self.check}] {self.message}"]
        if self.tasks:
            parts.append(f"tasks: {', '.join(self.tasks)}")
        if self.region:
            parts.append(f"region: {self.region}")
        return " | ".join(parts)


@dataclass
class SubjectReport:
    """Findings + informational statistics for one analyzed subject."""

    name: str
    findings: list[Finding] = field(default_factory=list)
    stats: dict[str, Scalar] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "stats": dict(self.stats),
            "findings": [f.as_dict() for f in self.findings],
        }


@dataclass
class AnalysisReport:
    """Aggregated result of one analyzer run (one or more subjects).

    ``modes`` names the analysis passes that produced the subjects
    (``"static"`` for the structural/race/liveness sweep,
    ``"modelcheck"`` for protocol model checking, ``"sanitize"`` for the
    runtime access sanitizer) — new in schema version 2.
    """

    subjects: list[SubjectReport] = field(default_factory=list)
    meta: dict[str, Scalar] = field(default_factory=dict)
    modes: list[str] = field(default_factory=lambda: ["static"])

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.subjects)

    @property
    def findings(self) -> list[Finding]:
        return [f for s in self.subjects for f in s.findings]

    @property
    def n_findings(self) -> int:
        return sum(len(s.findings) for s in self.subjects)

    def subject(self, name: str) -> SubjectReport:
        """Get-or-create the subject report called ``name``."""
        for s in self.subjects:
            if s.name == name:
                return s
        s = SubjectReport(name=name)
        self.subjects.append(s)
        return s

    def merge(self, other: "AnalysisReport") -> None:
        """Fold ``other``'s subjects, meta and modes into this report."""
        self.subjects.extend(other.subjects)
        self.meta.update(other.meta)
        for mode in other.modes:
            if mode not in self.modes:
                self.modes.append(mode)

    def as_dict(self) -> dict[str, object]:
        return {
            "schema": ANALYSIS_SCHEMA,
            "schema_version": ANALYSIS_SCHEMA_VERSION,
            "ok": self.ok,
            "modes": list(self.modes),
            "meta": dict(self.meta),
            "subjects": [s.as_dict() for s in self.subjects],
        }

    def render(self) -> str:
        """Human-readable multi-line summary (the non-JSON CLI output)."""
        lines: list[str] = []
        for s in self.subjects:
            mark = "ok " if s.ok else "FAIL"
            stats = " ".join(f"{k}={v}" for k, v in sorted(s.stats.items()))
            lines.append(f"[{mark}] {s.name}" + (f" ({stats})" if stats else ""))
            for f in s.findings:
                lines.append(f"       {f}")
        lines.append(
            f"{sum(s.ok for s in self.subjects)}/{len(self.subjects)} subjects clean, "
            f"{self.n_findings} finding(s)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def _err(errors: list[str], path: str, msg: str) -> None:
    errors.append(f"{path}: {msg}")


def _check_scalar_map(obj: object, path: str, errors: list[str]) -> None:
    if not isinstance(obj, dict):
        _err(errors, path, f"expected object, got {type(obj).__name__}")
        return
    for k, v in obj.items():
        if not isinstance(k, str):
            _err(errors, path, f"non-string key {k!r}")
        if not isinstance(v, _SCALARS):
            _err(errors, f"{path}.{k}", f"non-scalar value of type {type(v).__name__}")


def _check_finding(obj: object, path: str, errors: list[str]) -> None:
    if not isinstance(obj, dict):
        _err(errors, path, "finding must be an object")
        return
    missing = {"check", "message", "tasks", "region", "detail"} - set(obj)
    if missing:
        _err(errors, path, f"missing keys {sorted(missing)}")
        return
    for key in ("check", "message", "region"):
        if not isinstance(obj[key], str):
            _err(errors, f"{path}.{key}", "must be a string")
    if not isinstance(obj["check"], str) or not obj["check"]:
        _err(errors, f"{path}.check", "must be a non-empty string")
    tasks = obj["tasks"]
    if not isinstance(tasks, list) or any(not isinstance(t, str) for t in tasks):
        _err(errors, f"{path}.tasks", "must be a list of strings")
    _check_scalar_map(obj["detail"], f"{path}.detail", errors)


def _check_subject(obj: object, path: str, errors: list[str]) -> bool:
    """Returns True when the subject (including its findings) is clean."""
    if not isinstance(obj, dict):
        _err(errors, path, "subject must be an object")
        return True
    missing = {"name", "stats", "findings"} - set(obj)
    if missing:
        _err(errors, path, f"missing keys {sorted(missing)}")
        return True
    if not isinstance(obj["name"], str) or not obj["name"]:
        _err(errors, f"{path}.name", "must be a non-empty string")
    _check_scalar_map(obj["stats"], f"{path}.stats", errors)
    findings = obj["findings"]
    if not isinstance(findings, list):
        _err(errors, f"{path}.findings", "must be a list")
        return True
    for i, f in enumerate(findings):
        _check_finding(f, f"{path}.findings[{i}]", errors)
    return not findings


def validate_analysis_document(doc: object) -> list[str]:
    """Structurally validate an analysis document; returns error strings.

    An empty list means the document conforms to its declared
    ``repro.analysis`` version (one of
    :data:`SUPPORTED_ANALYSIS_VERSIONS`) and is JSON-serializable, with
    ``ok`` consistent with the presence of findings.

    Raises
    ------
    SchemaVersionError
        When ``schema_version`` is a well-formed integer but names a
        version this validator does not know. Returning an error string
        would let stale validators "fail" newer documents for the wrong
        reason — or, worse, a future lenient caller pass them unchecked —
        so an unknown version is a typed, loud failure instead.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["$: document must be an object"]
    if doc.get("schema") != ANALYSIS_SCHEMA:
        _err(errors, "$.schema", f"expected {ANALYSIS_SCHEMA!r}, got {doc.get('schema')!r}")
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        _err(errors, "$.schema_version", f"expected positive int, got {version!r}")
        version = None
    elif version not in SUPPORTED_ANALYSIS_VERSIONS:
        raise SchemaVersionError(
            f"$.schema_version: unknown repro.analysis version {version}; "
            f"this validator supports {SUPPORTED_ANALYSIS_VERSIONS}"
        )
    if version is not None and version >= 2:
        modes = doc.get("modes")
        if not isinstance(modes, list) or not modes or any(
            not isinstance(m, str) or not m for m in modes
        ):
            _err(
                errors,
                "$.modes",
                "version >= 2 requires a non-empty list of mode strings",
            )
    if not isinstance(doc.get("ok"), bool):
        _err(errors, "$.ok", "must be a boolean")
    _check_scalar_map(doc.get("meta"), "$.meta", errors)
    subjects = doc.get("subjects")
    all_clean = True
    if not isinstance(subjects, list):
        _err(errors, "$.subjects", "must be a list")
    else:
        for i, s in enumerate(subjects):
            all_clean = _check_subject(s, f"$.subjects[{i}]", errors) and all_clean
        if isinstance(doc.get("ok"), bool) and doc["ok"] != all_clean:
            _err(errors, "$.ok", f"is {doc['ok']} but findings say {all_clean}")
    if not errors:
        try:
            json.dumps(doc)
        except (TypeError, ValueError) as exc:
            _err(errors, "$", f"not JSON-serializable: {exc}")
    return errors
