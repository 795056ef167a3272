"""Tests for the util subpackage (timer, tables, rng, errors)."""

import time

import numpy as np
import pytest

from repro.util.errors import (
    DispatchError,
    FormatError,
    PatternError,
    ReproError,
    SchedulingError,
    ShapeError,
    SingularMatrixError,
    StructurallySingularError,
)
from repro.util.rng import DEFAULT_SEED, make_rng
from repro.util.tables import format_table
from repro.util.timer import Timer


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005

    def test_reusable(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed >= first


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [(1, 2.5), (33, 4.125)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("bb")

    def test_title(self):
        out = format_table(["x"], [(1,)], title="hello")
        assert out.splitlines()[0] == "hello"

    def test_float_formatting(self):
        out = format_table(["x"], [(1.23456,)], floatfmt=".2f")
        assert "1.23" in out and "1.2345" not in out

    def test_bool_cells(self):
        out = format_table(["ok"], [(True,)])
        assert "True" in out

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestRng:
    def test_default_seed_reproducible(self):
        a = make_rng(None).random(5)
        b = make_rng(None).random(5)
        assert np.array_equal(a, b)

    def test_explicit_seed(self):
        assert not np.array_equal(make_rng(1).random(5), make_rng(2).random(5))

    def test_generator_passthrough(self):
        g = np.random.default_rng(7)
        assert make_rng(g) is g

    def test_default_seed_value(self):
        assert DEFAULT_SEED == 20000501


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            ShapeError,
            PatternError,
            SingularMatrixError,
            StructurallySingularError,
            SchedulingError,
            FormatError,
        ):
            assert issubclass(exc, ReproError)

    def test_value_error_compat(self):
        # Callers catching ValueError still see shape/pattern errors.
        assert issubclass(ShapeError, ValueError)
        assert issubclass(PatternError, ValueError)
        assert issubclass(SingularMatrixError, ArithmeticError)

    def test_raising(self):
        with pytest.raises(ReproError):
            raise SchedulingError("x")


def _bad_calls():
    """One bad call per entry point that checks its arguments, on the
    request path and off it (engines, recipes, amalgamation, the tuner),
    each taking a small matrix and its plan."""
    from repro.api import lu
    from repro.parallel.dispatch import run_engine
    from repro.parallel.mapping import make_mapping
    from repro.parallel.procengine import ProcPool
    from repro.parallel.two_d import build_2d_graph
    from repro.serve import PlanCache, SolverService
    from repro.serve.fingerprint import values_digest
    from repro.serve.refactor import refactorize_with_plan
    from repro.symbolic.supernodes import amalgamate, supernode_partition
    from repro.tune import autotune, evaluate_recipe, parse_recipe

    calls = {
        "lu-plan-and-options": lambda a, p: lu(a, plan=p, ordering="rcm"),
        "lu-dissect-leaf_size": lambda a, p: lu(
            a, ordering="dissect", ordering_params=(("leaf_size", 0),)
        ),
        "make_mapping-unknown": lambda a, p: make_mapping("bogus", p.bp, 2),
        "refactor-order-and-engine": lambda a, p: refactorize_with_plan(
            p, a, order=[], engine="sequential"
        ),
        "service-n_workers": lambda a, p: SolverService(n_workers=-1),
        "service-max_queue": lambda a, p: SolverService(max_queue=0),
        "service-max_batch": lambda a, p: SolverService(max_batch=0),
        "cache-max_entries": lambda a, p: PlanCache(max_entries=0),
        "values_digest-pattern-only": lambda a, p: values_digest(a.pattern_only()),
        "run_engine-unknown": lambda a, p: run_engine(None, None, "bogus"),
        "run_engine-2d-threaded": lambda a, p: run_engine(
            None, build_2d_graph(p.bp), "threaded"
        ),
        "run_engine-2d-proc": lambda a, p: run_engine(
            None, build_2d_graph(p.bp), "proc"
        ),
        "lu-threaded-no-worker": lambda a, p: lu(a, engine="threaded", n_workers=0),
        "lu-threaded-negative": lambda a, p: lu(a, engine="threaded", n_workers=-1),
        "lu-proc-no-worker": lambda a, p: lu(a, engine="proc", n_workers=0),
        "procpool-no-worker": lambda a, p: ProcPool(n_workers=0),
        "recipe-empty": lambda a, p: parse_recipe(""),
        "recipe-not-key-value": lambda a, p: parse_recipe("amd:foo"),
        "amalgamate-max_padding": lambda a, p: amalgamate(
            p.fill, supernode_partition(p.fill), max_padding=1.5
        ),
        "autotune-objective": lambda a, p: autotune(a, objective="bogus"),
        "autotune-no-candidates": lambda a, p: autotune(a, candidates=[]),
        "score-objective": lambda a, p: evaluate_recipe(a, p.options).objective(
            "bogus"
        ),
    }
    return [pytest.param(call, id=name) for name, call in calls.items()]


@pytest.mark.parametrize("call", _bad_calls())
def test_request_path_argument_errors_are_typed(call):
    # A caller catching ReproError sees every argument error the library
    # raises on purpose; except-ValueError call sites keep working.
    from repro.serve import build_plan
    from tests.conftest import random_pivot_matrix

    a = random_pivot_matrix(20, 0)
    with pytest.raises(ReproError) as info:
        call(a, build_plan(a))
    assert isinstance(info.value, ValueError)


def _selectors():
    from repro.parallel import dispatch as engine_dispatch

    return [
        pytest.param(
            engine_dispatch.resolve_engine,
            engine_dispatch.ENV_VAR,
            engine_dispatch.ENGINES,
            engine_dispatch.DEFAULT_ENGINE,
            id="engine",
        ),
    ]


@pytest.mark.parametrize("resolve, env_var, valid, default", _selectors())
class TestResolveChoice:
    """The engine selector: argument > environment variable > default."""

    def test_bad_argument_names_source_and_valid_set(
        self, monkeypatch, resolve, env_var, valid, default
    ):
        monkeypatch.setenv(env_var, valid[-1])  # the argument is what is blamed
        with pytest.raises(DispatchError, match="argument") as exc:
            resolve("turbo")
        assert isinstance(exc.value, ValueError)
        assert all(name in str(exc.value) for name in valid)

    def test_bad_env_var_names_source_and_valid_set(
        self, monkeypatch, resolve, env_var, valid, default
    ):
        monkeypatch.setenv(env_var, "typo")
        with pytest.raises(DispatchError, match=env_var) as exc:
            resolve()
        assert all(name in str(exc.value) for name in valid)
        assert resolve(valid[-1]) == valid[-1]  # an argument still wins

    def test_empty_env_var_falls_back_to_default(
        self, monkeypatch, resolve, env_var, valid, default
    ):
        monkeypatch.setenv(env_var, "")
        assert resolve() == default

