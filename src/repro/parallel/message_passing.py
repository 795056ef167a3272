"""Distributed-memory (message-passing) execution of the factorization.

The paper's actual setting: S*/S+ run on distributed-memory machines where
each processor owns its block columns and receives factored panels over the
network. This module executes that semantics for real — not a cost model:

* every virtual process holds a panel store
  (:class:`~repro.numeric.blockdata.BlockColumnData`) materializing **only
  its owned columns** (symbolic metadata replicated, as real codes do);
* ``Factor(k)`` runs on ``owner(k)`` and *sends* a :class:`PanelMessage` —
  a **copy** of the factored candidate panel plus the pivot renaming — to
  every processor owning an update target of ``k``, which installs it in
  its own store as block ``k``'s sub-panel and pivot slot;
* ``Update(k, j)`` runs on ``owner(j)`` against the *received* panel; a
  process never touches memory it does not own (attempting to raises).

The driver interleaves the virtual processes deterministically (each step,
the lowest-ranked process with a runnable task executes one), so runs are
reproducible; the factors are gathered at the end and must equal the
shared-memory sequential factors — the strongest executable statement of
the 1-D distributed algorithm this environment allows (no MPI runtime).

This is **execution with distributed semantics but no real concurrency**:
it exists to validate the ownership/message protocol and pin the event
simulator's cost model, and it is not dispatchable as an ``engine=``
choice. Real multi-process execution — actual worker processes, shared
memory instead of panel-carrying messages — is
:mod:`repro.parallel.procengine`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.numeric.blockdata import BlockColumnData
from repro.numeric.factor import FactorResult, LUFactorization
from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.tasks import Task
from repro.util.errors import SchedulingError


@dataclass
class PanelMessage:
    """The datum ``F(k)`` broadcasts: factored panel + pivot renaming."""

    k: int
    pivots: np.ndarray  # copy of block k's pivot slot
    panel: np.ndarray  # copy of the candidate panel (L below, U_kk on top)

    @property
    def n_bytes(self) -> int:
        return self.panel.nbytes + self.pivots.nbytes

    def copy(self) -> "PanelMessage":
        return PanelMessage(self.k, self.pivots.copy(), self.panel.copy())


class ProcessEngine(LUFactorization):
    """One virtual process: owned columns only, remote panels from messages."""

    def __init__(
        self,
        rank: int,
        a: CSCMatrix,
        bp: BlockPattern,
        owned: set[int],
    ) -> None:
        super().__init__(a, bp, owned_columns=owned)
        self.rank = rank
        self.owned = owned
        self.bytes_received = 0
        self.n_messages_received = 0

    def receive(self, msg: PanelMessage) -> None:
        """Install the received copy as block ``msg.k`` of this rank's store."""
        self.data.sub_panels[msg.k] = msg.panel
        self.data.pivots[msg.k][...] = msg.pivots
        self.bytes_received += msg.n_bytes
        self.n_messages_received += 1

    def run_factor(self, k: int) -> PanelMessage:
        if k not in self.owned:
            raise SchedulingError(f"rank {self.rank} cannot factor column {k}")
        self.run_task(Task("F", k, k))
        return PanelMessage(k, self.data.pivots[k], self.data.sub_panels[k]).copy()

    def run_update(self, k: int, j: int) -> None:
        if j not in self.owned:
            raise SchedulingError(f"rank {self.rank} cannot update column {j}")
        if self.data.pivots[k][0] < 0:  # neither factored here nor received
            raise SchedulingError(
                f"rank {self.rank}: U({k},{j}) ran before panel {k} arrived"
            )
        self.run_task(Task("U", k, j))


@dataclass
class MessagePassingResult:
    """Gathered outcome of one distributed run."""

    result: FactorResult
    data: BlockColumnData  # the gathered panel store
    n_messages: int
    bytes_moved: int
    per_rank_tasks: list[int] = field(default_factory=list)


def message_passing_factorize(
    a: CSCMatrix,
    bp: BlockPattern,
    graph: TaskGraph,
    owner: np.ndarray,
) -> MessagePassingResult:
    """Execute ``graph`` with per-process storage and explicit messages.

    Parameters
    ----------
    a:
        The analyzed (permuted) matrix with values.
    bp:
        Block pattern of ``Ā``.
    graph:
        A sufficient dependence graph (eforest or S*).
    owner:
        1-D mapping, ``owner[k]`` = owning rank of block column ``k``.
    """
    owner = np.asarray(owner, dtype=np.int64)
    if owner.size != bp.n_blocks:
        raise SchedulingError("mapping does not cover the block columns")
    n_procs = int(owner.max()) + 1 if owner.size else 1
    graph.validate()

    engines = [
        ProcessEngine(
            rank=p,
            a=a,
            bp=bp,
            owned={int(k) for k in np.nonzero(owner == p)[0]},
        )
        for p in range(n_procs)
    ]

    # Which ranks need column k's panel (own an update target of k).
    panel_destinations: dict[int, set[int]] = {}
    for t in graph.tasks():
        if t.kind == "U":
            dest = int(owner[t.j])
            if dest != int(owner[t.k]):
                panel_destinations.setdefault(t.k, set()).add(dest)

    n_preds = {t: graph.in_degree(t) for t in graph.tasks()}
    ready: list[deque[Task]] = [deque() for _ in range(n_procs)]
    for t, d in sorted(n_preds.items()):
        if d == 0:
            ready[int(owner[t.target])].append(t)

    n_messages = 0
    bytes_moved = 0
    n_done = 0
    total = graph.n_tasks
    per_rank_tasks = [0] * n_procs
    # Deterministic interleaving: each round, the lowest rank with ready
    # work executes exactly one task.
    while n_done < total:
        progressed = False
        for p in range(n_procs):
            if not ready[p]:
                continue
            task = ready[p].popleft()
            eng = engines[p]
            if task.kind == "F":
                msg = eng.run_factor(task.k)
                for dest in sorted(panel_destinations.get(task.k, ())):
                    engines[dest].receive(msg.copy())
                    n_messages += 1
                    bytes_moved += msg.n_bytes
            else:
                eng.run_update(task.k, task.j)
            per_rank_tasks[p] += 1
            n_done += 1
            progressed = True
            for succ in graph.successors(task):
                n_preds[succ] -= 1
                if n_preds[succ] == 0:
                    ready[int(owner[succ.target])].append(succ)
            break
        if not progressed:
            raise SchedulingError("deadlock: tasks remain but none is ready")

    # Gather: assemble a full-storage engine from the owners' panels and
    # pivot slots, then extract as usual (the final MPI_Gather).
    gathered = LUFactorization(a, bp)
    for k in range(bp.n_blocks):
        eng = engines[int(owner[k])]
        gathered.data.panels[k][...] = eng.data.panels[k]
        gathered.data.pivots[k][...] = eng.data.pivots[k]
    gathered.recompose_orig_at()
    result = gathered.extract()
    return MessagePassingResult(
        result=result,
        data=gathered.data,
        n_messages=n_messages,
        bytes_moved=bytes_moved,
        per_rank_tasks=per_rank_tasks,
    )
