"""Numeric engine selection: ``engine=`` arg > ``$REPRO_ENGINE`` > default.

Mirrors the dispatch idiom of :mod:`repro.symbolic.dispatch`: an
explicit argument wins, an environment variable overrides the default,
and an unknown name fails loudly with the valid choices. Three engines
execute the factorization for real (the simulators are *models*, not
engines):

``sequential``
    One block step per block column, in the calling thread. Default.
``threaded``
    :func:`repro.parallel.threads.threaded_factorize` — a thread pool
    releasing the units of a cut of the block eforest
    (:func:`repro.parallel.threads.release_plan`), one body at a time.
``proc``
    :func:`repro.parallel.procengine.proc_factorize` — the same release
    loop over the same cut, with each unit's body run by a worker process
    over a shared-memory arena.

All three run block steps and produce bitwise-identical factors, so the
choice is purely a performance/deployment decision — see
docs/parallel.md. Tasks run one by one only in a sequential replay
(:func:`replay_order`): an explicit order, or the §6 2-D block graph
(:func:`repro.parallel.two_d.build_2d_graph`) under ``"sequential"``.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Any, Iterable

from repro.numeric.factor import LUFactorization
from repro.taskgraph.dag import TaskGraph
from repro.util.dispatch import resolve_choice
from repro.util.errors import DispatchError

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

    Every engine runs block steps and ignores a 1-D ``graph`` (it may be
    ``None``). A 2-D graph replays sequentially in the canonical
    right-looking order (:func:`replay_order`) under ``"sequential"`` and
    is refused by the parallel engines. ``pool`` optionally supplies a
    :class:`repro.parallel.procengine.ProcPool` for the ``proc`` engine
    that the caller owns and reuses across runs. Returns the proc engine's
    :class:`~repro.parallel.procengine.ProcStats` or ``None``.

    Sanitizing: an explicit ``sanitizer``
    (:class:`repro.analysis.sanitizer.AccessSanitizer`) is attached to
    the engine for the run, ordering the steps by the block eforest, and
    left for the caller to inspect — the caller owns the verdict. With
    ``REPRO_SANITIZE=1`` and no explicit sanitizer, one is built from
    ``fill`` (the static fill ``refactorize_with_plan`` passes alongside its block
    pattern) and any finding raises
    :class:`~repro.util.errors.SanitizerError` after the run — the
    strict gate mode. A parallel engine annotates ``tracer``'s open span
    with its cut's ``n_units`` and predicted ``subtree_share``.
    """
    from repro.parallel.two_d import canonical_2d_order, is_2d_graph

    if choice not in ENGINES:
        raise DispatchError(
            f"unknown engine {choice!r}; valid engines: " + ", ".join(ENGINES)
        )
    if graph is not None and is_2d_graph(graph):
        if choice != "sequential":
            raise DispatchError(
                f"the {choice!r} engine runs block steps; a 2-D graph only "
                "replays under 'sequential'"
            )
        return replay_order(
            engine, canonical_2d_order(graph), graph, fill=fill, sanitizer=sanitizer
        )
    from repro.analysis.sanitizer import step_predecessors

    preds = partial(step_predecessors, engine.bp)
    if choice != "sequential" and tracer is not None:
        from repro.parallel.threads import release_plan

        workers = pool.n_workers if choice == "proc" and pool is not None else n_workers
        cut = release_plan(engine.bp, workers)
        tracer.annotate(n_units=len(cut.units), subtree_share=cut.subtree_share)
    with _sanitized(engine, sanitizer, fill, preds, f"{choice} factorization"):
        if choice == "sequential":
            engine.factor_sequential()
        elif choice == "threaded":
            from repro.parallel.threads import threaded_factorize

            threaded_factorize(engine, n_workers, metrics=metrics)
        elif pool is not None:
            return pool.factorize(engine, metrics=metrics, tracer=tracer)
        else:
            from repro.parallel.procengine import proc_factorize

            return proc_factorize(engine, n_workers, metrics=metrics, tracer=tracer)
    return None


def replay_order(
    engine: LUFactorization,
    order: "Iterable[Any]",
    graph: "TaskGraph",
    *,
    fill=None,
    sanitizer=None,
) -> None:
    """Run ``order``, a topological order of ``graph``'s tasks, one task at
    a time in the calling thread — the Theorem-4 oracle: any such order
    gives the factors the block steps give. A sanitizer (explicit, or
    strict under ``REPRO_SANITIZE=1`` as in :func:`run_engine`) checks
    each task against ``graph``'s predecessors, so an order that breaks
    the graph is a ``sanitizer.missing_happens_before`` finding."""
    from repro.analysis.sanitizer import task_predecessors

    preds = partial(task_predecessors, graph)
    with _sanitized(engine, sanitizer, fill, preds, "replayed factorization"):
        engine.run_order(order)


@contextmanager
def _sanitized(engine: LUFactorization, sanitizer, fill, predecessors, label: str):
    """Attach the run's sanitizer to ``engine`` — the caller's, else under
    ``REPRO_SANITIZE=1`` a strict one, which raises on any finding after
    the run — with ``predecessors()`` as its happens-before reference."""
    from repro.analysis.sanitizer import build_sanitizer, sanitize_enabled
    from repro.util.errors import SanitizerError

    san, strict = sanitizer, False
    if san is None and sanitize_enabled():
        if fill is None:
            raise SanitizerError(
                f"$REPRO_SANITIZE is set but the {label} carries no symbolic "
                "plan (fill=); sanitized runs need the static footprints"
            )
        san, strict = build_sanitizer(engine.bp, fill), True
    if san is not None:
        san.set_predecessors(predecessors())
        engine.sanitizer = san
    yield
    if strict:
        san.raise_on_findings(label)
