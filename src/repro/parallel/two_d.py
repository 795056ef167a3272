"""2-D partitioning of the factorization — the paper's first future-work item.

§6: "Future work consists ... to extend our methods for a 2D partitioning of
the matrix." This module provides that extension at the task-model level,
following the elimination-forest-guided 2-D formulation of S+ (Shen, Jiao &
Yang): ownership is per *block* on a ``pr x pc`` processor grid instead of
per block column, and the task granularity refines accordingly:

* ``F(k)``      — factor the diagonal block ``(k,k)``;
* ``SL(k,i)``   — scale lower block: ``L(i,k) = A(i,k) U_kk⁻¹``;
* ``SU(k,j)``   — scale upper block: ``U(k,j) = L_kk⁻¹ A(k,j)``;
* ``UP(k,i,j)`` — rank-``w_k`` update ``A(i,j) -= L(i,k) U(k,j)`` for every
  stored block ``(i,j)``.

There is one description of that computation, :func:`build_2d_graph` — a
real :class:`~repro.taskgraph.dag.TaskGraph` over :class:`Task2D` nodes
(its docstring lists the dependences). The dispatchable engines
(sequential replay, ``threaded_factorize`` and ``proc_factorize`` — see
docs/parallel.md) *execute* it against
:class:`~repro.numeric.blockdata.BlockLayout` panels via the per-block
kernels in :mod:`repro.numeric.factor`, and
:func:`repro.parallel.simulate.simulate_schedule` *prices* it on the α-β
machine model under a :class:`~repro.parallel.mapping.GridMapping` (task
costs and per-block messages in :class:`repro.numeric.costs.CostModel`).
No plan or recipe selects it: it is an experiment and a test oracle, not
a serving path.

The graph keeps the deferred-pivoting discipline exactly as in 1-D —
``F(k)`` still pivots over the whole candidate panel, so the pivot
sequence is identical to the 1-D engines' — and serializes each target
column's update *steps* in ascending source order (``SU(k,j)`` waits for
every ``UP`` of the previous step into column ``j``), which fixes the
block-update summation order: every admissible schedule, on every engine,
produces bitwise-identical factors, and those factors agree with the 1-D
reference to rounding (the per-block GEMMs sum a column's update in the
same source order, in different BLAS call shapes).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.tasks import _upper_blocks_by_source


class Task2D(NamedTuple):
    """One task of the 2-D factorization; ``(i, j)`` is the block it writes."""

    kind: str  # "F", "SL", "SU", "UP"
    k: int
    i: int
    j: int

    def __str__(self) -> str:
        if self.kind == "F":
            return f"F({self.k})"
        if self.kind == "SL":
            return f"SL({self.k},{self.i})"
        if self.kind == "SU":
            return f"SU({self.k},{self.j})"
        return f"UP({self.k},{self.i},{self.j})"

    @property
    def target(self) -> int:
        """Block column whose panel this task writes (or, for the
        write-free ``SL``, reads) — what a 1-D owner map would index."""
        return self.j


def build_2d_graph(bp: BlockPattern) -> TaskGraph:
    """The 2-D task graph over ``B̄``, executed by the engines and priced
    by ``simulate_schedule``.

    Task bodies are the per-block kernels of
    :class:`repro.numeric.factor.LUFactorization` (``run_task`` dispatches
    on ``kind``). Dependences:

    * ``F(k) → SL(k,i) / SU(k,j)`` — scales read the factored panel ``k``;
    * ``SL(k,i), SU(k,j) → UP(k,i,j)`` — an update reads both its inputs;
    * a per-column *step chain* in ascending source order: every task of
      column ``j``'s step ``k`` (its ``UP(k,·,j)``, or ``SU(k,j)`` alone
      when step ``k`` updates no stored block of ``j``) precedes
      ``SU(k′,j)`` of the next step ``k′ > k``. ``SU``'s pivot-rename
      scatter may touch any supported row of column ``j``, so steps cannot
      overlap within one column — and the chain is exactly what pins the
      block-update summation order, making every schedule bitwise-equal;
    * the last step's tasks precede ``F(j)`` — the full-panel pivot search
      needs every update to column ``j`` complete.

    Updates of one step into *different* block rows carry no edges between
    them: that intra-column concurrency is what 1-D column ownership
    cannot exploit and the 2-D mapping can.
    """
    n = bp.n_blocks
    upper = _upper_blocks_by_source(bp)
    lower = [bp.col_blocks(k)[bp.col_blocks(k) > k].tolist() for k in range(n)]
    stored = [set(int(b) for b in bp.col_blocks(j)) for j in range(n)]
    # sources[j] = ascending k < j with a stored upper block (k, j).
    sources: list[list[int]] = [[] for _ in range(n)]
    for k in range(n):
        for j in upper[k]:
            sources[j].append(k)

    g = TaskGraph()
    for k in range(n):
        f = Task2D("F", k, k, k)
        g.add_task(f)
        for i in lower[k]:
            g.add_edge(f, Task2D("SL", k, int(i), k))
        for j in upper[k]:
            g.add_edge(f, Task2D("SU", k, k, int(j)))
    for j in range(n):
        tail: list[Task2D] = []
        for k in sources[j]:
            su = Task2D("SU", k, k, j)
            for t in tail:
                g.add_edge(t, su)
            ups = [Task2D("UP", k, int(i), j) for i in lower[k] if int(i) in stored[j]]
            for up in ups:
                g.add_edge(Task2D("SL", k, up.i, k), up)
                g.add_edge(su, up)
            tail = ups if ups else [su]
        for t in tail:
            g.add_edge(t, Task2D("F", j, j, j))
    return g


_KIND_RANK = {"F": 0, "SL": 1, "SU": 2, "UP": 3}


def canonical_2d_key(t: Task2D) -> tuple[int, int, int, int]:
    """Total order approximating the right-looking sweep (source first)."""
    return (t.k, _KIND_RANK[t.kind], t.i, t.j)


def canonical_2d_order(graph: TaskGraph) -> list[Task2D]:
    """The fixed sequential replay order of a 2-D graph.

    Any topological order yields the same factors (the step chains already
    pin every summation); this one is the canonical reference the property
    tests replay."""
    return list(graph.topological_order(tie_break=canonical_2d_key))


def is_2d_graph(graph: TaskGraph) -> bool:
    """Whether ``graph``'s nodes are :class:`Task2D` (vs 1-D ``Task``)."""
    for t in graph.tasks():
        return isinstance(t, Task2D)
    return False
