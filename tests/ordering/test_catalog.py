"""The ordering catalog: one table that every reader of an ordering name uses.

``repro.ordering.ORDERINGS`` names the orderings and their functions;
``SolverOptions`` checks names and parameter keys against it,
``build_plan`` calls through it, and the CLI's ``--ordering`` choices and
the autotuner's candidates list it. Adding an entry to the table is the
whole of adding an ordering.
"""

import argparse
import inspect

import numpy as np
import pytest

from repro.cli import build_parser
from repro.numeric.solver import SolverOptions
from repro.ordering import ORDERINGS
from repro.serve.plan import build_plan
from repro.sparse.generators import paper_matrix
from repro.tune import default_candidates


def _ordering_choices() -> set:
    """``--ordering``'s choices, which must agree on every subcommand."""
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    choices = {
        tuple(a.choices)
        for p in sub.choices.values()
        for a in p._actions
        if "--ordering" in a.option_strings
    }
    assert len(choices) == 1
    return set(choices.pop())


def test_catalog_cli_and_tuner_agree():
    assert set(ORDERINGS) == _ordering_choices()
    assert [c.ordering for c in default_candidates(quick=True)] == list(ORDERINGS)


def test_added_entry_reaches_every_reader(monkeypatch):
    calls = []

    def reverse_order(a, *, stride=1):
        calls.append(stride)
        return np.arange(a.n_cols, dtype=np.int64)[::-1].copy()

    monkeypatch.setitem(ORDERINGS, "reverse", reverse_order)
    opts = SolverOptions(ordering="reverse", ordering_params=(("stride", 2),))
    with pytest.raises(ValueError, match="'nope'"):
        SolverOptions(ordering="reverse", ordering_params=(("nope", 1),))

    plan = build_plan(paper_matrix("orsreg1", scale=0.06), opts)
    assert calls == [2]
    assert plan.options.ordering == "reverse"
    assert "reverse" in {c.ordering for c in default_candidates(quick=True)}
    assert "reverse" in _ordering_choices()


def test_default_options_inspect_no_signature(monkeypatch):
    # ``lu()`` builds default options on every cold request: only
    # explicit ``ordering_params`` pay for reading a signature.
    def refuse(*args, **kwargs):
        raise AssertionError("signature inspected")

    monkeypatch.setattr(inspect, "signature", refuse)
    assert SolverOptions(ordering="rcm").ordering == "rcm"
    with pytest.raises(AssertionError):
        SolverOptions(ordering="dissect", ordering_params=(("leaf_size", 8),))


def test_removed_entry_leaves_every_reader(monkeypatch):
    monkeypatch.delitem(ORDERINGS, "dissect")
    with pytest.raises(ValueError, match="'dissect'"):
        SolverOptions(ordering="dissect")
    assert "dissect" not in {c.ordering for c in default_candidates()}
    assert "dissect" not in _ordering_choices()
