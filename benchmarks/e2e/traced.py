"""The traced run: a short slice of a workload, driven layer by layer.

Four passes over the slice's requests, each a probe of its own:

``staged``   the pipeline stage by stage through each layer's public
             functions, in pipeline order, one span per stage;
``direct``   the same requests through the serve layer's functions in the
             calling thread (fingerprint, plan cache, refactorize, solve);
``service``  the same requests through a ``SolverService`` from two
             clients, for queueing and batching;
``audit``    paths that are off the default request path (AMD, threaded,
             proc and 2-D engines, 16-column solve, detail tracing).

A probe that raises nulls its own metrics and is listed under
``skipped_probes``; it cannot change an end-to-end number or the exit
status. The one thing that does fail the run is the staged pass producing
factors that differ from ``lu(a)``'s: then the spans describe some other
pipeline.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from spans import Recorder
from workloads import (
    N_RESOLVE_RHS,
    REQUEST_TIMEOUT_S,
    RESIDUAL_TOL,
    drive_service,
    same_factors,
    scaled_residual,
    service_counts,
)

#: Stage spans; the metric ``<span>_s`` is the span's mean self time.
STAGE_SPANS = (
    "sparse.permute",
    "ordering.transversal",
    "ordering.order",
    "symbolic.static_fill",
    "symbolic.postorder",
    "symbolic.supernodes",
    "taskgraph.build",
    "taskgraph.solve_schedule",
    "numeric.layout",
    "numeric.engine",
    "numeric.extract",
    "numeric.solve1",
)


@dataclass
class Plan:
    """What the symbolic stages hand to the numeric ones."""

    row_perm: np.ndarray
    col_perm: np.ndarray
    row_perm_inv: np.ndarray
    fill: object
    partition: object
    bp: object
    graph: object
    schedule: object
    layout: object
    n_btf_blocks: int


@dataclass
class FirstRequest:
    """The first staged request, which the audit probes run on."""

    plan: Plan
    a: object
    a_work: object
    result: object


def pattern_key(a) -> bytes:
    return hashlib.sha1(a.indptr.tobytes() + a.indices.tobytes()).digest()


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


# ---------------------------------------------------------------------------
# staged pass
# ---------------------------------------------------------------------------
def order_columns(work, opts) -> np.ndarray:
    """The fill-reducing ordering named by ``opts.ordering``."""
    from repro.ordering.amd import amd_ata
    from repro.ordering.dissect import nested_dissection_ata
    from repro.ordering.mindeg import minimum_degree_ata
    from repro.ordering.rcm import reverse_cuthill_mckee

    if opts.ordering == "natural":
        return np.arange(work.n_cols, dtype=np.int64)
    orderings = {
        "mindeg": minimum_degree_ata,
        "amd": amd_ata,
        "dissect": nested_dissection_ata,
        "rcm": reverse_cuthill_mckee,
    }
    return orderings[opts.ordering](work, **opts.ordering_kwargs())


def staged_symbolic(rec: Recorder, a) -> Plan:
    """Ordering → static fill → postorder → supernodes → task graph."""
    from repro.numeric.blockdata import BlockLayout
    from repro.numeric.solver import SolverOptions
    from repro.ordering.transversal import zero_free_diagonal_permutation
    from repro.sparse.ops import permute
    from repro.symbolic.dispatch import resolve_impl
    from repro.symbolic.postorder import postorder_pipeline
    from repro.symbolic.static_fill import static_symbolic_factorization
    from repro.symbolic.supernodes import (
        amalgamate,
        block_pattern,
        supernode_partition,
    )
    from repro.taskgraph.eforest_graph import build_eforest_graph
    from repro.taskgraph.solve_graph import level_schedule
    from repro.taskgraph.sstar import build_sstar_graph

    opts = SolverOptions()
    impl = resolve_impl()
    work = a.pattern_only()
    with rec.span("ordering.transversal"):
        row_perm = zero_free_diagonal_permutation(work)
    with rec.span("sparse.permute"):
        work = permute(work, row_perm=row_perm)
    with rec.span("ordering.order", method=opts.ordering):
        q = order_columns(work, opts)
    with rec.span("sparse.permute"):
        work = permute(work, row_perm=q, col_perm=q)
    row_perm, col_perm = q[row_perm], q.copy()
    with rec.span("symbolic.static_fill", impl=impl):
        fill = static_symbolic_factorization(
            work, impl=impl, **opts.symbolic_kwargs()
        )
    n_btf_blocks = 0
    if opts.postorder:
        with rec.span("symbolic.postorder"):
            po = postorder_pipeline(fill, impl=impl)
        row_perm, col_perm, fill = po.perm[row_perm], po.perm[col_perm], po.fill
        n_btf_blocks = len(po.blocks)
    with rec.span("symbolic.supernodes"):
        partition = supernode_partition(fill)
        if opts.amalgamation:
            partition = amalgamate(
                fill,
                partition,
                max_padding=opts.max_padding,
                max_size=opts.max_supernode,
            )
        bp = block_pattern(fill, partition)
    with rec.span("taskgraph.build", kind=opts.task_graph):
        if opts.task_graph == "eforest":
            graph = build_eforest_graph(bp)
        else:
            graph = build_sstar_graph(bp)
    with rec.span("taskgraph.solve_schedule"):
        schedule = level_schedule(bp)
    with rec.span("numeric.layout"):
        layout = BlockLayout(bp)
    row_perm_inv = np.empty_like(row_perm)
    row_perm_inv[row_perm] = np.arange(row_perm.size)
    return Plan(
        row_perm, col_perm, row_perm_inv, fill, partition, bp, graph,
        schedule, layout, n_btf_blocks,
    )


def run_engine_span(rec: Recorder, name: str, plan: Plan, a_work, choice, graph, **kw):
    """One factorization (panel scatter + engine) under the span ``name``."""
    from repro.numeric.factor import LUFactorization
    from repro.parallel.dispatch import run_engine

    with rec.span(name, engine=choice):
        eng = LUFactorization(a_work, plan.bp, layout=plan.layout)
        run_engine(eng, graph, choice, fill=plan.fill, **kw)
    return eng


def staged_numeric(rec: Recorder, plan: Plan, a, b):
    """Value permutation → factorization → extraction → one solve."""
    from repro.numeric.solve_dispatch import resolve_impl as resolve_solve_impl
    from repro.sparse.ops import permute

    with rec.span("sparse.permute"):
        a_work = permute(a, row_perm=plan.row_perm, col_perm=plan.col_perm)
    eng = run_engine_span(rec, "numeric.engine", plan, a_work, "sequential", plan.graph)
    retain = resolve_solve_impl() == "block"
    with rec.span("numeric.extract"):
        result = eng.extract(
            retain_blocks=retain, solve_schedule=plan.schedule if retain else None
        )
    with rec.span("numeric.solve1"):
        x = result.solve(b[plan.row_perm_inv])[plan.col_perm]
    return a_work, eng, result, x


def staged_pass(rec: Recorder, wl, prewarm, requests) -> dict:
    """Every request of the slice, stage by stage; returns what it saw."""
    plans: dict = {}
    seen = {"plans": [], "engines": [], "first": None, "failed": 0}

    def plan_for(a):
        key = pattern_key(a)
        plan = plans.get(key) if wl.reuses_plans else None
        if plan is None:
            plan = plans[key] = staged_symbolic(rec, a)
            seen["plans"].append(plan)
        return plan

    rec.op_id = -1
    for a in prewarm:
        with rec.span("prewarm", phase="setup"):
            plan_for(a)
    for op_id, a, b in requests:
        rec.op_id = op_id
        with rec.span("request", phase="request"):
            plan = plan_for(a)
            a_work, eng, result, x = staged_numeric(rec, plan, a, b)
        seen["engines"].append(eng.lazy_stats)
        seen["failed"] += scaled_residual(a, x, b) > RESIDUAL_TOL
        if seen["first"] is None:
            seen["first"] = FirstRequest(plan, a, a_work, result)
    return seen


def staged(rec: Recorder, wl, prewarm, requests, seen: dict) -> dict:
    """The staged pass and the metrics read off its spans."""
    seen.update(staged_pass(rec, wl, prewarm, requests))
    self_times = rec.self_times()
    out = {f"{name}_s": _mean(self_times.get(name, ())) for name in STAGE_SPANS}
    plans, engines = seen["plans"], seen["engines"]
    out["ordering.fill_ratio"] = _mean(p.fill.fill_ratio for p in plans)
    out["symbolic.nnz_filled"] = _mean(p.fill.nnz for p in plans)
    out["symbolic.n_supernodes"] = _mean(p.partition.n_supernodes for p in plans)
    out["symbolic.mean_supernode_size"] = _mean(p.partition.mean_size() for p in plans)
    out["symbolic.n_btf_blocks"] = _mean(p.n_btf_blocks for p in plans)
    out["taskgraph.n_tasks"] = _mean(p.graph.n_tasks for p in plans)
    out["taskgraph.n_edges"] = _mean(p.graph.n_edges for p in plans)
    for field in ("flops_spent", "n_updates_run", "n_updates_skipped"):
        out[f"numeric.{field}"] = _mean(getattr(e, field) for e in engines)
    out["numeric.flop_rate"] = sum(e.flops_spent for e in engines) / sum(
        self_times["numeric.engine"]
    )
    # Requests of one operation share an op_id; an operation's sample is
    # its mean request time, as in the untraced run.
    per_op = defaultdict(list)
    for s in rec.spans:
        if s["name"] == "request":
            per_op[s["op_id"]].append(s["end"] - s["start"])
    out["trace.request_s"] = statistics.median(_mean(v) for v in per_op.values())
    return out


# ---------------------------------------------------------------------------
# direct and service passes
# ---------------------------------------------------------------------------
def direct_pass(rec: Recorder, prewarm, requests) -> dict:
    """The requests through the serve layer's functions, no service."""
    from repro.serve import (
        PlanCache,
        fingerprint,
        refactorize_with_plan,
        values_digest,
    )

    cache = PlanCache(max_entries=32)
    rec.op_id = -1
    for a in prewarm:
        with rec.span("serve.plan_lookup", phase="setup", hit=False):
            cache.get_or_build(a)
    for op_id, a, b in requests:
        rec.op_id = op_id
        with rec.span("direct.request", phase="request"):
            with rec.span("serve.fingerprint"):
                fingerprint(a)
                values_digest(a)
            misses = cache.stats()["misses"]
            with rec.span("serve.plan_lookup") as s:
                plan = cache.get_or_build(a)
            s["hit"] = cache.stats()["misses"] == misses
            with rec.span("serve.plan_match"):
                plan.matches(a)
            with rec.span("serve.direct_warm"):
                refactorize_with_plan(plan, a, check_pattern=False).solve(b)
    return {
        "serve.fingerprint_s": _mean(rec.durations("serve.fingerprint")),
        "serve.plan_build_s": _mean(rec.durations("serve.plan_lookup", hit=False)),
        "serve.plan_match_s": _mean(rec.durations("serve.plan_match")),
        "serve.direct_warm_s": _mean(rec.durations("serve.direct_warm")),
    }


def service_pass(rec: Recorder, prewarm, requests) -> dict:
    """The requests through a ``SolverService`` from two clients."""
    from repro.serve import PlanCache, SolverService

    with SolverService(cache=PlanCache(max_entries=32)) as service:
        for a in prewarm:
            service.solve(a, np.ones(a.n_cols), timeout=REQUEST_TIMEOUT_S)
        before = service.stats()
        with rec.span("service.slice", phase="request"):
            latencies, failed, first_error = drive_service(
                service, iter([(a, b) for _, a, b in requests])
            )
        out = service_counts(before, service.stats())
    if failed:
        raise RuntimeError(f"{failed} served requests failed: {first_error}")
    known = {pattern_key(a) for a in prewarm}
    out["serve.distinct_patterns"] = len(
        {pattern_key(a) for _, a, _ in requests} - known
    )
    direct = rec.durations("direct.request")
    out["serve.wait_s"] = _mean(latencies) - _mean(direct) if direct else None
    return out


# ---------------------------------------------------------------------------
# audit probes (off the default request path)
# ---------------------------------------------------------------------------
def probe_amd(rec: Recorder, matrices) -> dict:
    from repro.ordering.amd import amd_ata
    from repro.ordering.transversal import zero_free_diagonal_permutation
    from repro.sparse.ops import permute
    from repro.symbolic.static_fill import static_symbolic_factorization

    ratios = []
    for a in matrices:
        work = a.pattern_only()
        work = permute(work, row_perm=zero_free_diagonal_permutation(work))
        with rec.span("ordering.amd", phase="audit"):
            q = amd_ata(work)
        work = permute(work, row_perm=q, col_perm=q)
        ratios.append(static_symbolic_factorization(work).fill_ratio)
    return {
        "ordering.amd_s": _mean(rec.durations("ordering.amd")),
        "ordering.amd_fill_ratio": _mean(ratios),
    }


def probe_solve16(rec: Recorder, first: FirstRequest) -> dict:
    plan = first.plan
    rhs = np.ones((plan.row_perm.size, N_RESOLVE_RHS))
    for _ in range(3):
        with rec.span("numeric.solve16", phase="audit"):
            first.result.solve(rhs[plan.row_perm_inv])[plan.col_perm]
    return {"numeric.solve16_s": _mean(rec.durations("numeric.solve16"))}


def probe_threaded(rec: Recorder, first: FirstRequest) -> dict:
    eng = run_engine_span(
        rec, "parallel.threaded_engine", first.plan, first.a_work, "threaded",
        first.plan.graph, n_workers=2,
    )  # fmt: skip
    if not same_factors(eng.extract(), first.result):
        raise RuntimeError("threaded factors differ from the sequential ones")
    (threaded,) = rec.durations("parallel.threaded_engine")
    # Base: the sequential engine on the same request, the slice's first.
    sequential = rec.durations("numeric.engine")[0]
    return {
        "parallel.threaded_engine_s": threaded,
        "parallel.threaded_speedup": sequential / threaded,
    }


def probe_proc(rec: Recorder, first: FirstRequest) -> dict:
    from repro.parallel.procengine import ProcPool

    plan, a_work = first.plan, first.a_work
    with rec.span("parallel.proc_pool_start", phase="audit"):
        pool = ProcPool(2)
    try:
        # The first factorization binds the pool to the plan and forks.
        run_engine_span(
            rec, "parallel.proc_first", plan, a_work, "proc", plan.graph, pool=pool
        )
        run_engine_span(
            rec, "parallel.proc_engine", plan, a_work, "proc", plan.graph, pool=pool
        )
    finally:
        pool.close()
    (pool_s,), (first_s,), (warm_s,) = (
        rec.durations(f"parallel.proc_{k}") for k in ("pool_start", "first", "engine")
    )
    return {
        "parallel.proc_engine_s": warm_s,
        "parallel.proc_pool_start_s": pool_s + first_s - warm_s,
    }


def probe_grid2d(rec: Recorder, first: FirstRequest) -> dict:
    from repro.parallel.two_d import build_2d_graph

    graph = build_2d_graph(first.plan.bp)
    run_engine_span(
        rec, "parallel.grid2d_engine", first.plan, first.a_work, "sequential", graph
    )
    (replay,) = rec.durations("parallel.grid2d_engine")
    return {"parallel.grid2d_engine_s": replay}


def probe_obs(rec: Recorder, first: FirstRequest) -> dict:
    from repro.api import lu

    for _ in range(2):
        with rec.span("obs.lu_plain", phase="audit"):
            lu(first.a)
        with rec.span("obs.lu_traced", phase="audit"):
            lu(first.a, trace=True)
    plain, detailed = (min(rec.durations(f"obs.lu_{k}")) for k in ("plain", "traced"))
    return {"obs.trace_overhead_frac": detailed / plain - 1.0}


# ---------------------------------------------------------------------------
def run_traced(wl, declared: list):
    """All probes over ``wl``'s slice.

    Returns ``(metrics, skipped_probes, recorder, attempted, failed)``;
    the last two count the staged pass's checked solves. ``declared``
    names every per-layer metric; the ones no probe produced stay ``None``.
    """
    from repro.api import lu

    rec = Recorder()
    metrics: dict = dict.fromkeys(declared)
    skipped: dict = {}

    def probe(name, fn, *args):
        try:
            metrics.update(fn(rec, *args))
        except Exception:  # a broken probe nulls its own metrics, no more
            skipped[name] = traceback.format_exc(limit=4)

    seen: dict = {}
    try:
        wl.setup()
        gc.collect()  # as in the untraced run: the threaded engine's steady state
        prewarm, requests = wl.trace_slice()
        probe("staged", staged, wl, prewarm, requests, seen)
        first = seen.get("first")
        if first is not None:
            if not same_factors(first.result, lu(first.a).solver.result):
                raise RuntimeError("staged factors differ from lu(a)'s")
            op0 = [a for op_id, a, _ in requests if op_id == requests[0][0]]
            probe("audit.amd", probe_amd, op0)
            probe("audit.solve16", probe_solve16, first)
            probe("audit.threaded", probe_threaded, first)
            probe("audit.proc", probe_proc, first)
            probe("audit.grid2d", probe_grid2d, first)
            probe("audit.obs", probe_obs, first)
        probe("direct", direct_pass, prewarm, requests)
        probe("service", service_pass, prewarm, requests)
    finally:
        wl.teardown()
    return metrics, skipped, rec, len(requests), seen.get("failed", 0)
