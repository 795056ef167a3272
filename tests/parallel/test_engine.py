"""Direct tests of the generic event engine."""

import pytest

from repro.parallel.engine import bottom_levels, run_event_simulation
from repro.util.errors import SchedulingError


def simple_dag():
    """a -> b -> d, a -> c -> d (diamond) with names as tasks."""

    class T:
        def __init__(self, name, kind="F"):
            self.name = name
            self.kind = kind

        def __repr__(self):
            return self.name

        def __str__(self):
            return self.name

    a, b, c, d = T("a"), T("b"), T("c"), T("d")
    succ = {a: [b, c], b: [d], c: [d], d: []}
    indeg = {a: 0, b: 1, c: 1, d: 2}
    return [a, b, c, d], succ, indeg


class TestEngine:
    def test_serial_is_sum(self):
        tasks, succ, indeg = simple_dag()
        res = run_event_simulation(
            tasks,
            lambda t: succ[t],
            indeg,
            n_procs=1,
            owner_of=lambda t: 0,
            compute_time=lambda t: 2.0,
        )
        assert res.makespan == pytest.approx(8.0)
        assert res.efficiency == pytest.approx(1.0)

    def test_two_procs_overlap_diamond(self):
        tasks, succ, indeg = simple_dag()
        owner = {t: i % 2 for i, t in enumerate(tasks)}
        res = run_event_simulation(
            tasks,
            lambda t: succ[t],
            indeg,
            n_procs=2,
            owner_of=lambda t: owner[t],
            compute_time=lambda t: 1.0,
        )
        # b and c overlap: critical path a-b-d = 3.
        assert res.makespan == pytest.approx(3.0)

    def test_messages_counted_once_per_key(self):
        tasks, succ, indeg = simple_dag()
        a, b, c, d = tasks
        owner = {a: 0, b: 1, c: 1, d: 1}
        res = run_event_simulation(
            tasks,
            lambda t: succ[t],
            indeg,
            n_procs=2,
            owner_of=lambda t: owner[t],
            compute_time=lambda t: 1.0,
            message_of=lambda s, t2: ("datum-a", 100) if s is a else None,
            transfer_time=lambda nb: 0.5,
        )
        # a->b and a->c share the key and the destination: one message.
        assert res.n_messages == 1
        assert res.comm_bytes == 100

    def test_invalid_owner(self):
        tasks, succ, indeg = simple_dag()
        with pytest.raises(SchedulingError):
            run_event_simulation(
                tasks,
                lambda t: succ[t],
                indeg,
                n_procs=1,
                owner_of=lambda t: 5,
                compute_time=lambda t: 1.0,
            )

    def test_cycle_detected(self):
        class T:
            def __init__(self, name):
                self.name = name

            def __str__(self):
                return self.name

        a, b = T("a"), T("b")
        succ = {a: [b], b: [a]}
        indeg = {a: 1, b: 1}
        with pytest.raises(SchedulingError):
            run_event_simulation(
                [a, b],
                lambda t: succ[t],
                indeg,
                n_procs=1,
                owner_of=lambda t: 0,
                compute_time=lambda t: 1.0,
            )

    def test_trace(self):
        tasks, succ, indeg = simple_dag()
        res = run_event_simulation(
            tasks,
            lambda t: succ[t],
            indeg,
            n_procs=1,
            owner_of=lambda t: 0,
            compute_time=lambda t: 1.0,
            record_trace=True,
        )
        assert len(res.start_times) == 4

    def test_bottom_levels(self):
        tasks, succ, indeg = simple_dag()
        a, b, c, d = tasks
        levels = bottom_levels([a, b, c, d], lambda t: succ[t], lambda t: 1.0)
        assert levels[d] == 1.0
        assert levels[b] == levels[c] == 2.0
        assert levels[a] == 3.0
