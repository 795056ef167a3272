"""Engine metric wiring: the busy/idle accounting identity and agreement
between the exported counters and the simulation's own result object."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel.machine import MachineModel
from repro.parallel.mapping import cyclic_mapping
from repro.parallel.simulate import simulate_schedule
from repro.serve import build_plan
from repro.sparse.generators import paper_matrix
from repro.taskgraph.solve_graph import build_solve_graph


@pytest.fixture(scope="module")
def plan():
    return build_plan(paper_matrix("orsreg1", scale=0.2))


@pytest.fixture(scope="module")
def simulated(plan):
    machine = MachineModel(n_procs=4)
    owner = cyclic_mapping(plan.bp.n_blocks, machine.n_procs)
    metrics = MetricsRegistry()
    result = simulate_schedule(
        plan.graph, plan.bp, machine, owner, metrics=metrics
    )
    return result, metrics


class TestAccountingIdentity:
    def test_busy_plus_idle_equals_procs_times_makespan(self, simulated):
        result, metrics = simulated
        busy = metrics.get("engine.busy_seconds").value
        idle = metrics.get("engine.idle_seconds").value
        makespan = metrics.get("engine.makespan_seconds").value
        n_procs = metrics.get("engine.n_procs").value
        assert busy + idle == pytest.approx(n_procs * makespan, rel=1e-9)

    def test_busy_matches_independent_task_cost_sum(self, plan, simulated):
        # Independent recomputation: every task contributes its compute time
        # to exactly one processor's busy total.
        from repro.numeric.costs import CostModel

        result, metrics = simulated
        machine = MachineModel(n_procs=4)
        model = CostModel(plan.bp)
        expected = sum(
            machine.compute_time(model.flops(t), model.width(t))
            for t in plan.graph.tasks()
        )
        assert metrics.get("engine.busy_seconds").value == pytest.approx(
            expected, rel=1e-9
        )


class TestCountersMatchResult:
    def test_counters_agree_with_engine_result(self, simulated):
        result, metrics = simulated
        assert metrics.get("engine.tasks").value == result.n_tasks
        assert metrics.get("engine.messages").value == result.n_messages
        assert metrics.get("engine.message_bytes").value == result.comm_bytes
        assert metrics.get("engine.busy_seconds").value == pytest.approx(
            float(result.busy.sum())
        )
        assert metrics.get("engine.idle_seconds").value == pytest.approx(result.idle)
        assert metrics.get("engine.efficiency").value == pytest.approx(
            result.efficiency
        )

    def test_queue_depth_observed_once_per_dispatch(self, simulated):
        result, metrics = simulated
        hist = metrics.get("engine.ready_queue_depth")
        assert hist.count == result.n_tasks
        assert hist.min >= 0

    def test_metrics_do_not_change_the_schedule(self, plan):
        machine = MachineModel(n_procs=4)
        owner = cyclic_mapping(plan.bp.n_blocks, machine.n_procs)
        bare = simulate_schedule(plan.graph, plan.bp, machine, owner)
        instrumented = simulate_schedule(
            plan.graph, plan.bp, machine, owner, metrics=MetricsRegistry()
        )
        assert bare.makespan == instrumented.makespan
        assert bare.n_messages == instrumented.n_messages


class TestSolvePhase:
    def test_solve_phase_identity(self, plan):
        machine = MachineModel(n_procs=4)
        owner = cyclic_mapping(plan.bp.n_blocks, machine.n_procs)
        metrics = MetricsRegistry()
        result = simulate_schedule(
            build_solve_graph(plan.bp), plan.bp, machine, owner, metrics=metrics
        )
        busy = metrics.get("engine.busy_seconds").value
        idle = metrics.get("engine.idle_seconds").value
        assert busy + idle == pytest.approx(
            machine.n_procs * result.makespan, rel=1e-9
        )


class TestRecordedSchedule:
    def test_record_trace_covers_every_task(self, plan):
        machine = MachineModel(n_procs=4)
        owner = cyclic_mapping(plan.bp.n_blocks, machine.n_procs)
        result = simulate_schedule(
            plan.graph, plan.bp, machine, owner, record_trace=True
        )
        assert len(result.start_times) == result.n_tasks
        assert set(result.owners.values()) <= set(range(machine.n_procs))
        assert max(result.finish_times.values()) == pytest.approx(result.makespan)
