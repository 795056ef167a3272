"""Installation self-check: one function that exercises every subsystem.

``python -m repro selfcheck`` (or ``repro.verify.selfcheck()``) runs a
condensed end-to-end verification — the handful of invariants that, when
green, mean the install is healthy: George-Ng containment, Theorem 1-3
checks, the :mod:`repro.analysis` structural lints and full static
race/deadlock analysis of the frozen plan, PA = LU under three executors,
solve accuracy against the scalar reference, and a deterministic
simulation. Runs in a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CheckResult:
    """Outcome of one named check."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class SelfCheckReport:
    checks: list[CheckResult] = field(default_factory=list)
    trace_summary: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name=name, ok=bool(ok), detail=detail))

    def render(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"[{mark}] {c.name}" + (f" ({c.detail})" if c.detail else ""))
        lines.append(
            f"{sum(c.ok for c in self.checks)}/{len(self.checks)} checks passed"
        )
        if self.trace_summary:
            stages = " ".join(
                f"{k}={v:.3f}s" for k, v in sorted(self.trace_summary.items())
            )
            lines.append(f"stage seconds: {stages}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-serializable form, printed by ``repro selfcheck --json``."""
        return {
            "schema": "repro.selfcheck",
            "schema_version": 1,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
            "trace_summary": dict(self.trace_summary),
        }


def selfcheck(*, n: int = 40, seed: int = 7) -> SelfCheckReport:
    """Run the condensed verification; returns a report (never raises)."""
    report = SelfCheckReport()
    try:
        _run_checks(report, n, seed)
    except Exception as exc:  # a crash is itself a failed check
        report.add("no unexpected exceptions", False, f"{type(exc).__name__}: {exc}")
    return report


def _run_checks(report: SelfCheckReport, n: int, seed: int) -> None:
    from repro.numeric.factor import LUFactorization
    from repro.numeric.refine import backward_error
    from repro.numeric.scalar_lu import scalar_lu
    from repro.obs.trace import Tracer
    from repro.ordering.etree import is_forest_permutation_topological
    from repro.parallel.machine import MachineModel
    from repro.parallel.mapping import cyclic_mapping
    from repro.parallel.message_passing import message_passing_factorize
    from repro.parallel.simulate import simulate_schedule
    from repro.parallel.threads import threaded_factorize
    from repro.serve.plan import build_plan
    from repro.serve.refactor import permuted_values, refactorize_with_plan
    from repro.sparse.coo import COOBuilder
    from repro.sparse.pattern import pattern_contains, pattern_equal
    from repro.sparse.ops import permute
    from repro.symbolic.characterization import verify_theorem1, verify_theorem2
    from repro.symbolic.eforest import extended_eforest
    from repro.symbolic.static_fill import (
        simulate_elimination_fill,
        static_symbolic_factorization,
    )

    rng = np.random.default_rng(seed)
    builder = COOBuilder(n, n)
    n_off = int(0.12 * n * n)
    builder.extend(
        rng.integers(0, n, n_off), rng.integers(0, n, n_off), rng.standard_normal(n_off)
    )
    ids = np.arange(n)
    builder.extend(ids, ids, 0.01 + 0.01 * rng.random(n))  # weak diagonal
    a = builder.to_csc()

    tracer = Tracer()
    plan = build_plan(a, tracer=tracer)
    a_work, _ = permuted_values(plan, a)
    fill = plan.fill
    report.add("pipeline analyzes", fill is not None, f"fill {fill.fill_ratio:.1f}x")

    exact = simulate_elimination_fill(
        a_work, lambda k, cand: cand[rng.integers(len(cand))]
    )
    report.add(
        "George-Ng containment (random pivots)",
        pattern_contains(fill.pattern, exact),
    )

    forest = extended_eforest(fill)
    report.add("Theorem 1", verify_theorem1(fill, forest))
    report.add("Theorem 2", verify_theorem2(fill, forest))

    from repro.symbolic.postorder import postorder_pipeline

    po = postorder_pipeline(fill)
    a2 = permute(a_work, row_perm=po.perm, col_perm=po.perm)
    fill2 = static_symbolic_factorization(a2)
    report.add(
        "Theorem 3 (postorder invariance)",
        pattern_equal(fill2.pattern, po.fill.pattern)
        and np.array_equal(fill2.parent, po.fill.parent),
    )
    report.add(
        "postorder is topological",
        is_forest_permutation_topological(fill.parent, po.perm),
    )

    # Structural invariants are owned by repro.analysis.structure — the
    # selfcheck delegates instead of re-implementing them.
    from repro.analysis import check_csc, check_forest_matches, check_postorder
    from repro.symbolic.eforest import lu_elimination_forest_reference

    csc_findings = check_csc(fill.pattern, name="Abar")
    report.add(
        "Abar pattern lints clean (analysis.structure)",
        not csc_findings,
        "; ".join(str(f) for f in csc_findings[:2]),
    )
    parent = lu_elimination_forest_reference(plan.fill)
    match_findings = check_forest_matches(plan.fill.parent, parent)
    report.add(
        "merge eforest is Definition 1's (analysis.structure)",
        not match_findings,
        "; ".join(str(f) for f in match_findings[:2]),
    )
    post_findings = check_postorder(parent)
    report.add(
        "pipeline eforest is a postorder (analysis.structure)",
        not post_findings,
        "; ".join(str(f) for f in post_findings[:2]),
    )

    ref = LUFactorization(a_work, plan.bp)
    ref.factor_sequential()
    ref_l = ref.extract().l_factor.to_dense()

    thr = LUFactorization(a_work, plan.bp)
    threaded_factorize(thr, n_threads=4)
    report.add(
        "threaded == sequential", np.allclose(thr.extract().l_factor.to_dense(), ref_l)
    )

    mp = message_passing_factorize(
        a_work, plan.bp, plan.graph, cyclic_mapping(plan.bp.n_blocks, 3)
    )
    report.add(
        "message-passing == sequential",
        np.allclose(mp.result.l_factor.to_dense(), ref_l),
        f"{mp.n_messages} messages",
    )

    fac = refactorize_with_plan(plan, a, tracer=tracer, check_pattern=False)
    b = np.ones(n)
    x = fac.solve(b)
    be = backward_error(a, x, b)
    report.add("solve backward error", be < 1e-10, f"{be:.1e}")

    x_ref = scalar_lu(a).solve(b)
    report.add(
        "supernodal == scalar reference", np.allclose(x, x_ref, rtol=1e-6, atol=1e-8)
    )

    m = MachineModel(n_procs=4)
    owner = cyclic_mapping(plan.bp.n_blocks, 4)
    r1 = simulate_schedule(plan.graph, plan.bp, m, owner)
    r2 = simulate_schedule(plan.graph, plan.bp, m, owner)
    report.add(
        "simulation deterministic",
        r1.makespan == r2.makespan,
        f"makespan {r1.makespan:.4f}s",
    )

    from repro.analysis import analyze_plan

    analysis = analyze_plan(plan, name="selfcheck")
    report.add(
        "static analyzer finds no races or broken invariants",
        analysis.ok,
        f"{analysis.n_findings} finding(s) over {len(analysis.subjects)} subjects",
    )

    from repro.obs.export import validate_document

    doc = tracer.export(meta={"source": "selfcheck", "n": n})
    report.add(
        "telemetry export is schema-valid",
        not validate_document(doc),
        f"schema v{doc['schema_version']}, {len(doc['spans'])} root spans",
    )
    report.trace_summary = tracer.stage_seconds()
