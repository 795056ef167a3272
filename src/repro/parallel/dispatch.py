"""Numeric engine selection: ``engine=`` arg > ``$REPRO_ENGINE`` > default.

Mirrors the dispatch idiom of :mod:`repro.symbolic.dispatch` and
:mod:`repro.numeric.solve_dispatch`: an explicit argument wins, an
environment variable overrides the default, and an unknown name fails
loudly with the valid choices. Three engines execute the factorization
for real (the simulators are *models*, not engines):

``sequential``
    One block step per block column, in the calling thread. Default.
``threaded``
    :func:`repro.parallel.threads.threaded_factorize` — a thread pool
    releasing block steps over the block eforest.
``proc``
    :func:`repro.parallel.procengine.proc_factorize` — the same release
    loop, with each unit's body run by a worker process over a
    shared-memory arena.

All three produce bitwise-identical factors, on the paper's 1-D column
graph and on the §6 2-D block graph
(:func:`repro.parallel.two_d.build_2d_graph`) alike, so the choice is
purely a performance/deployment decision — see docs/parallel.md.
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
    metrics=None,
    tracer=None,
    pool=None,
    fill=None,
    sanitizer=None,
):
    """Drive one factorization on the already-resolved engine ``choice``.

    Every engine runs block steps and reads no ``graph`` (it may be
    ``None``) unless the run needs the tasks one by one: a 2-D graph, a
    sanitizer, or ``check_dependencies``. A 2-D graph replays
    sequentially in the canonical right-looking order. ``check_dependencies``
    is refused under ``"proc"``: a worker sees only the tasks it ran.
    ``pool`` optionally supplies a shared
    :class:`repro.parallel.procengine.ProcPool` for the ``proc`` engine —
    the serving layer passes one so concurrent serving threads share a
    single process pool. Returns the proc engine's
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
    if choice == "proc" and engine.check_dependencies:
        raise ValueError(
            "check_dependencies is not supported by the proc engine: a "
            "worker process sees only the tasks it ran"
        )
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
    if choice not in ENGINES:
        raise ValueError(
            f"unknown engine {choice!r}; valid engines: " + ", ".join(ENGINES)
        )
    by_task = two_d or engine.sanitizer is not None or engine.check_dependencies
    if by_task and graph is None:
        raise ValueError(f"a sanitized or checked {choice} run needs a task graph")
    graph = graph if by_task else None
    if choice == "threaded":
        from repro.parallel.threads import threaded_factorize

        threaded_factorize(engine, graph, n_threads=n_workers, metrics=metrics)
        return None
    if pool is not None:
        return pool.factorize(engine, graph, metrics=metrics, tracer=tracer)
    from repro.parallel.procengine import proc_factorize

    return proc_factorize(engine, graph, n_workers, metrics=metrics, tracer=tracer)
