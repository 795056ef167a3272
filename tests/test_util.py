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


def _selectors():
    from repro.parallel import dispatch as engine_dispatch
    from repro.symbolic import dispatch as symbolic_dispatch

    return [
        pytest.param(
            symbolic_dispatch.resolve_impl,
            symbolic_dispatch.ENV_VAR,
            symbolic_dispatch.IMPLEMENTATIONS,
            symbolic_dispatch.DEFAULT_IMPL,
            id="symbolic",
        ),
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
    """The two selectors are one ``repro.util.resolve_choice``."""

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
