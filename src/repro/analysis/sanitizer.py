"""Runtime access sanitizer: dynamic panel/pivot accesses vs static footprints.

The race checker (:mod:`repro.analysis.races`) proves the *static*
footprints of :mod:`repro.analysis.footprints` pairwise ordered; its
guarantee is only as good as the footprints' soundness — the claim that
every access the engine actually performs is contained in its unit's
static (region, rows) sets. This module checks that claim at runtime:
an opt-in (``REPRO_SANITIZE=1``) instrumentation layer records the
actual scalar rows each kernel reads and writes in every block-column
panel, in ``orig_at``, and in the :class:`~repro.parallel.procengine.
SharedArena` pivot slots, and verifies *online* that each access is
contained in the executing unit's footprint. Any escape —
``sanitizer.read_escape`` / ``sanitizer.write_escape`` — is a soundness
bug in either the engine or the footprint model and fails the run with
:class:`~repro.util.errors.SanitizerError`.

The unit is the one the run executes: block step ``k`` (``F(k)`` and every
``U(k, j)``, checked against the union of their footprints,
:func:`~repro.analysis.footprints.step_footprints`) on every engine, or
one task on a sequential replay. Happens-before is rebuilt from the
execution itself: a unit's :meth:`~AccessSanitizer.begin` asserts every
predecessor was observed complete (:meth:`~AccessSanitizer.end`). The
predecessors are the block eforest's children for steps
(:func:`step_predecessors`) and the graph's for a replay
(:func:`task_predecessors`); they are checked where the units are
released — the executing threads, or the proc engine's parent, whose
workers check containment only. A violation
(``sanitizer.missing_happens_before``) means a unit started before all
its dependencies finished.

Region model
------------
Panels and ``orig_at`` use the region ids of
:mod:`repro.analysis.footprints`. The proc engine's shared pivot slots
get their own region namespace (block ``k`` → :func:`pivot_region`\\
``(k)``): ``F(k)`` publishes the pivoted row ids of the whole candidate
panel (padding included — the slot is written in bulk), and every
``U(k, j)``/``SU(k, j)`` reads them. That write
exceeds the ``orig_at`` support set on purpose, which is why pivot
slots are a separate region instead of a widening of the race-checked
factor footprints: the race model stays exactly as tight as the
footprint proofs need.

Instrumentation cost: every record site in
:class:`repro.numeric.factor.LUFactorization` is guarded by a single
``if self.sanitizer is not None`` branch (the ``metrics`` idiom), so a
disabled sanitizer costs one attribute test per site — the same
<5%-overhead standard the observability layer holds.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping

import numpy as np

from repro.analysis.footprints import (
    TaskFootprint,
    candidate_rows,
    factor_footprints,
    region_label,
    step_footprints,
    two_d_footprints,
    unit_name,
)
from repro.analysis.report import AnalysisReport, Finding
from repro.util.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.numeric.solver import SolverOptions
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.sparse.csc import CSCMatrix
    from repro.symbolic.static_fill import StaticFill
    from repro.symbolic.supernodes import BlockPattern
    from repro.taskgraph.dag import TaskGraph

#: Environment switch: any value other than empty/``0`` enables the
#: sanitizer inside :func:`repro.parallel.dispatch.run_engine`.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

#: Finding kinds the sanitizer can emit.
SANITIZER_KINDS = (
    "sanitizer.read_escape",
    "sanitizer.write_escape",
    "sanitizer.missing_happens_before",
    "sanitizer.unknown_task",
)

#: Pivot-slot region ids grow downward from here (block ``k`` maps to
#: ``PIVOT_REGION_BASE - k``), keeping them disjoint from panel regions
#: (``>= 0``) and :data:`~repro.analysis.footprints.ORIG_AT_REGION`.
PIVOT_REGION_BASE = -2


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized execution."""
    return os.environ.get(SANITIZE_ENV_VAR, "") not in ("", "0")


def pivot_region(k: int) -> int:
    """Region id of the shared pivot slot of block column ``k``."""
    return PIVOT_REGION_BASE - k


def sanitizer_region_label(region: int) -> str:
    """Display name covering panel, ``orig_at`` and pivot-slot regions."""
    if region <= PIVOT_REGION_BASE:
        return f"pivot slot {PIVOT_REGION_BASE - region}"
    return region_label(region)


def sanitizer_footprints(
    bp: "BlockPattern", fill: "StaticFill"
) -> dict[Hashable, TaskFootprint]:
    """Block-step, 1-D and 2-D task footprints, extended with pivot slots.

    The union is collision-free (step ``k`` is keyed ``k``; ``Task`` and
    ``Task2D`` keys differ), so one sanitizer covers steps and whichever
    graph a replay runs. The pivot-slot extension: ``F(k)`` writes slot
    ``k`` over the whole candidate row set, ``U(k, j)`` and ``SU(k, j)``
    read it — so step ``k`` both writes and reads it.
    """
    fps: dict[Hashable, TaskFootprint] = {}
    fps.update(factor_footprints(bp, fill))
    fps.update(two_d_footprints(bp, fill))
    cand = {k: candidate_rows(bp, k) for k in range(bp.n_blocks)}
    for c in cand.values():
        c.setflags(write=False)
    out: dict[Hashable, TaskFootprint] = {}
    for task, fp in fps.items():
        kind = task.kind
        k = int(task.k)
        if kind == "F":
            out[task] = TaskFootprint(
                reads=dict(fp.reads),
                writes={**fp.writes, pivot_region(k): cand[k]},
            )
        elif kind in ("U", "SU"):
            out[task] = TaskFootprint(
                reads={**fp.reads, pivot_region(k): cand[k]},
                writes=dict(fp.writes),
            )
        else:
            out[task] = fp
    out.update(step_footprints(bp, out))
    return out


def step_predecessors(bp: "BlockPattern") -> dict[int, tuple[int, ...]]:
    """Step ``k``'s predecessors: its children in the block eforest."""
    from repro.taskgraph.eforest_graph import block_eforest

    children: dict[int, list[int]] = {k: [] for k in range(bp.n_blocks)}
    for k, p in enumerate(block_eforest(bp).tolist()):
        if p >= 0:
            children[p].append(k)
    return {k: tuple(c) for k, c in children.items()}


def task_predecessors(graph: "TaskGraph") -> dict[Hashable, tuple[Hashable, ...]]:
    """Each task's predecessors in ``graph`` (the reference of a replay)."""
    preds: dict[Hashable, list[Hashable]] = {t: [] for t in graph.tasks()}
    for src, dst in graph.edges():
        preds[dst].append(src)
    return {t: tuple(p) for t, p in preds.items()}


class AccessSanitizer:
    """Online containment checker for one factorization run.

    ``predecessors`` maps a unit (block step or task) to the units that
    must complete before it starts; the dispatcher that picks the units
    sets it (:meth:`set_predecessors`). One instance is shared by every
    executor thread (the current unit is thread-local); the proc engine
    forks it into each worker and merges the per-worker accesses back via
    :meth:`export_run` / :meth:`merge_run` — units are counted by the
    parent, which releases them. All counters are informational —
    correctness rides on :attr:`findings` alone.
    """

    def __init__(
        self,
        footprints: Mapping[Hashable, TaskFootprint],
        predecessors: "Mapping[Hashable, Iterable[Hashable]] | None" = None,
        *,
        max_findings: int = 25,
    ) -> None:
        self._fps = footprints
        self._preds: Mapping[Hashable, Iterable[Hashable]] = {}
        self._completed: set[Hashable] = set()
        self._local = threading.local()
        self.max_findings = max_findings
        self.findings: list[Finding] = []
        self.n_accesses = 0
        self.n_rows = 0
        self.n_tasks = 0
        self.set_predecessors(predecessors)

    # -- lifecycle ----------------------------------------------------------

    def set_predecessors(
        self, predecessors: "Mapping[Hashable, Iterable[Hashable]] | None"
    ) -> None:
        """Adopt ``unit -> predecessors`` as the happens-before reference
        (``None``: check containment only, as a proc worker that sees only
        its own units)."""
        self._preds = {} if predecessors is None else predecessors

    def reset_run(self) -> None:
        """Clear per-run state (warm-pool workers reuse one instance)."""
        self._completed.clear()
        self._local = threading.local()
        self.findings = []
        self.n_accesses = 0
        self.n_rows = 0
        self.n_tasks = 0

    def begin(self, task: Hashable) -> None:
        """Enter unit ``task``'s dynamic extent; check happens-before."""
        preds = self._preds.get(task, ())
        missing = [p for p in preds if p not in self._completed]
        if missing:
            self._add(
                "sanitizer.missing_happens_before",
                f"{unit_name(task)} started before {len(missing)} of its "
                f"predecessors were observed complete",
                tasks=(unit_name(task),) + tuple(unit_name(p) for p in missing[:4]),
            )
        self._local.task = task

    def end(self, task: Hashable) -> None:
        """Leave unit ``task``'s dynamic extent and mark it complete."""
        self._local.task = None
        self._completed.add(task)
        self.n_tasks += 1

    # -- access recording ---------------------------------------------------

    def record_read(self, region: int, rows: np.ndarray) -> None:
        self._record(region, rows, write=False)

    def record_write(self, region: int, rows: np.ndarray) -> None:
        self._record(region, rows, write=True)

    def _record(self, region: int, rows: np.ndarray, *, write: bool) -> None:
        task = getattr(self._local, "task", None)
        if task is None:
            # Accesses outside any task (initial copy-in, extraction)
            # are not governed by task footprints.
            return
        rows = np.asarray(rows, dtype=np.int64).ravel()
        self.n_accesses += 1
        self.n_rows += int(rows.size)
        if not rows.size:
            return
        fp = self._fps.get(task)
        if fp is None:
            self._add(
                "sanitizer.unknown_task",
                f"{unit_name(task)} has no static footprint",
                tasks=(unit_name(task),),
            )
            return
        allowed = fp.written(region) if write else fp.accessed(region)
        if allowed.size:
            inside = np.isin(rows, allowed)
            if inside.all():
                return
            escaped = np.unique(rows[~inside])
        else:
            escaped = np.unique(rows)
        what = "write" if write else "read"
        self._add(
            f"sanitizer.{what}_escape",
            f"{unit_name(task)} {what}s rows "
            f"{escaped[:8].tolist()} of {sanitizer_region_label(region)} "
            f"outside its static footprint ({escaped.size} escaped rows)",
            tasks=(unit_name(task),),
            region=sanitizer_region_label(region),
            detail={"n_escaped": int(escaped.size), "write": write},
        )

    def _add(
        self,
        check: str,
        message: str,
        *,
        tasks: tuple[str, ...] = (),
        region: str = "",
        detail: dict | None = None,
    ) -> None:
        if len(self.findings) < self.max_findings:
            self.findings.append(
                Finding(
                    check=check,
                    message=message,
                    tasks=tasks,
                    region=region,
                    detail=detail or {},
                )
            )

    # -- multi-process plumbing ---------------------------------------------

    def export_run(self) -> dict[str, object]:
        """Picklable per-run results a worker ships back to the parent."""
        return {
            "findings": [f.as_dict() for f in self.findings],
            "n_accesses": self.n_accesses,
            "n_rows": self.n_rows,
        }

    def merge_run(self, payload: Mapping[str, object]) -> None:
        """Fold one worker's :meth:`export_run` payload into this instance."""
        for f in payload["findings"]:  # type: ignore[union-attr]
            if len(self.findings) < self.max_findings:
                self.findings.append(
                    Finding(
                        check=str(f["check"]),
                        message=str(f["message"]),
                        tasks=tuple(f["tasks"]),
                        region=str(f["region"]),
                        detail=dict(f["detail"]),
                    )
                )
        self.n_accesses += int(payload["n_accesses"])  # type: ignore[call-overload]
        self.n_rows += int(payload["n_rows"])  # type: ignore[call-overload]

    # -- results ------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "n_accesses": self.n_accesses,
            "n_rows_checked": self.n_rows,
            "n_tasks_sanitized": self.n_tasks,
            "n_findings": len(self.findings),
        }

    def raise_on_findings(self, label: str = "factorization") -> None:
        if not self.findings:
            return
        lines = [str(f) for f in self.findings[:10]]
        raise SanitizerError(
            f"{len(self.findings)} sanitizer finding(s) during {label}:\n"
            + "\n".join(lines)
        )


def build_sanitizer(
    bp: "BlockPattern", fill: "StaticFill", *, max_findings: int = 25
) -> AccessSanitizer:
    """Sanitizer over the combined (step + 1-D + 2-D + pivot-slot)
    footprints; the dispatcher that runs it sets its predecessors."""
    return AccessSanitizer(sanitizer_footprints(bp, fill), max_findings=max_findings)


def sanitize_matrix(
    a: "CSCMatrix",
    options: "SolverOptions | None" = None,
    *,
    name: str = "matrix",
    engine: str | None = None,
    n_workers: int = 2,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> AnalysisReport:
    """Run one sanitized factorization of ``a`` and report the findings.

    Unlike the static passes this *executes numerics* (a full
    factorization under the resolved engine with the sanitizer
    attached); it lives here rather than in :mod:`repro.analysis.runner`
    so the static analyzers keep their no-numerics guarantee. The
    resulting report carries one subject, ``{name}/sanitize-{engine}``,
    whose findings are the observed escapes (empty on a sound engine +
    footprint model).
    """
    from repro.obs.trace import Tracer as _Tracer
    from repro.parallel.dispatch import resolve_engine
    from repro.analysis.runner import suppress_hooks
    from repro.serve.plan import build_plan
    from repro.serve.refactor import refactorize_with_plan

    tr = tracer if tracer is not None else _Tracer(enabled=False)
    choice = resolve_engine(engine)
    report = AnalysisReport(modes=["sanitize"])
    sub = report.subject(f"{name}/sanitize-{choice}")
    with tr.span("analysis.sanitize", subject=name, engine=choice) as span:
        with suppress_hooks():
            plan = build_plan(a, options)
        san = build_sanitizer(plan.bp, plan.fill)
        refactorize_with_plan(
            plan, a, check_pattern=False, engine=choice, n_workers=n_workers,
            sanitizer=san, tracer=tr,
        )
        sub.extend(san.findings)
        sub.stats.update(san.stats())
        sub.stats["engine"] = choice
        span.set(ok=report.ok, **san.stats())
    if metrics is not None:
        metrics.counter("sanitizer.accesses", unit="accesses").inc(san.n_accesses)
        metrics.counter("sanitizer.rows_checked", unit="rows").inc(san.n_rows)
        metrics.counter("sanitizer.findings").inc(len(san.findings))
    return report
