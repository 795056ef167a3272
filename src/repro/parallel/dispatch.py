"""Numeric engine selection: ``engine=`` arg > ``$REPRO_ENGINE`` > default.

Mirrors the dispatch idiom of :mod:`repro.symbolic.dispatch` and
:mod:`repro.numeric.solve_dispatch`: an explicit argument wins, an
environment variable overrides the default, and an unknown name fails
loudly with the valid choices. Three engines execute the factorization
for real (the simulators in :mod:`repro.parallel.simulate` /
:mod:`repro.parallel.dynamic` are *models*, not engines, and are not
dispatchable here):

``sequential``
    The right-looking reference order in the calling thread, one block
    step per block column. Default.
``threaded``
    :func:`repro.parallel.threads.threaded_factorize` — a GIL-sharing
    thread pool releasing block steps over the block eforest.
``proc``
    :func:`repro.parallel.procengine.proc_factorize` — worker processes
    over a shared-memory arena with fan-both message scheduling of the
    task graph.

All three produce bitwise-identical factors (the race-free task graph
makes every admissible schedule equivalent, and a step runs each task's
body on the same operands), so the choice is purely a
performance/deployment decision — see docs/parallel.md. Every engine
runs both graph shapes: the paper's 1-D column graph and the §6 2-D
block graph (:func:`repro.parallel.two_d.build_2d_graph`); within one
shape, factors are bitwise-identical across engines and schedules.
"""

from __future__ import annotations

from repro.numeric.factor import LUFactorization
from repro.taskgraph.dag import TaskGraph
from repro.util.dispatch import resolve_choice

#: Environment override, weaker than an explicit ``engine=`` argument.
ENV_VAR = "REPRO_ENGINE"

#: Engine names accepted by :func:`resolve_engine`.
ENGINES = ("sequential", "threaded", "proc")

DEFAULT_ENGINE = "sequential"


def resolve_engine(choice: "str | None" = None) -> str:
    """The numeric engine to use: ``choice`` (an ``engine=`` argument) >
    ``$REPRO_ENGINE`` > ``"sequential"`` (:func:`repro.util.resolve_choice`)."""
    return resolve_choice(choice, ENV_VAR, ENGINES, DEFAULT_ENGINE, "engine")


def run_engine(
    engine: LUFactorization,
    graph: "TaskGraph | None",
    choice: str,
    *,
    n_workers: int = 4,
    mapping=None,
    metrics=None,
    tracer=None,
    pool=None,
    fill=None,
    sanitizer=None,
):
    """Drive one factorization on the already-resolved engine ``choice``.

    ``graph`` may be ``None`` for ``"sequential"`` and ``"threaded"``,
    which run block steps and read no graph unless a sanitizer or
    ``check_dependencies`` needs the tasks one by one; ``"proc"``
    schedules by the dependence graph. A 2-D graph replays in the
    canonical right-looking order instead of ``factor_sequential``.
    ``mapping`` optionally pins the proc engine's task placement — a 1-D
    owner array or a :class:`repro.parallel.mapping.GridMapping` (the
    threaded pool is work-stealing and ignores it). ``pool`` optionally
    supplies a shared :class:`repro.parallel.procengine.ProcPool` for the
    ``proc`` engine — the serving layer passes one so concurrent serving
    threads share a single process pool. Returns the proc engine's
    :class:`~repro.parallel.procengine.ProcStats` or ``None``.

    Sanitizing: an explicit ``sanitizer``
    (:class:`repro.analysis.sanitizer.AccessSanitizer`) is attached to
    the engine for the run and left for the caller to inspect — the
    caller owns the verdict. With ``REPRO_SANITIZE=1`` and no explicit
    sanitizer, one is built from ``fill`` (the static fill the solver
    passes alongside its block pattern) and any finding raises
    :class:`~repro.util.errors.SanitizerError` after the run — the
    strict gate mode.
    """
    san = sanitizer
    strict = False
    if san is None:
        from repro.analysis.sanitizer import sanitize_enabled

        if sanitize_enabled():
            from repro.analysis.sanitizer import build_sanitizer
            from repro.util.errors import SanitizerError

            bp = getattr(engine, "bp", None)
            if fill is None or bp is None:
                raise SanitizerError(
                    f"$REPRO_SANITIZE is set but the {choice!r} engine call "
                    "carries no symbolic plan (fill=); sanitized runs need "
                    "the static footprints"
                )
            san = build_sanitizer(bp, fill)
            strict = True
    if san is not None:
        if graph is not None:
            san.set_graph(graph)
        engine.sanitizer = san
    result = _dispatch(
        engine,
        graph,
        choice,
        n_workers=n_workers,
        mapping=mapping,
        metrics=metrics,
        tracer=tracer,
        pool=pool,
    )
    if san is not None and strict:
        san.raise_on_findings(f"{choice} factorization")
    return result


def _dispatch(
    engine: LUFactorization,
    graph: "TaskGraph | None",
    choice: str,
    *,
    n_workers: int,
    mapping,
    metrics,
    tracer,
    pool,
):
    from repro.parallel.two_d import canonical_2d_order, is_2d_graph

    two_d = graph is not None and is_2d_graph(graph)
    if choice == "sequential":
        if two_d:
            for task in canonical_2d_order(graph):
                engine.run_task(task)
            return None
        engine.factor_sequential()
        return None
    if choice == "threaded":
        from repro.parallel.threads import threaded_factorize

        by_task = two_d or engine.sanitizer is not None or engine.check_dependencies
        if by_task and graph is None:
            raise ValueError("a sanitized or checked threaded run needs a task graph")
        graph = graph if by_task else None
        threaded_factorize(engine, graph, n_threads=n_workers, metrics=metrics)
        return None
    if graph is None:
        raise ValueError(f"engine {choice!r} requires a task graph")
    if choice == "proc":
        if pool is not None:
            return pool.factorize(
                engine, graph, mapping=mapping, metrics=metrics, tracer=tracer
            )
        from repro.parallel.procengine import proc_factorize

        return proc_factorize(
            engine, graph, n_workers, mapping=mapping, metrics=metrics,
            tracer=tracer,
        )
    raise ValueError(
        f"unknown engine {choice!r}; valid engines: " + ", ".join(ENGINES)
    )
