"""Recipe specs: parsing into SolverOptions, round-trips, and checks."""

import dataclasses

import pytest

from repro.numeric.solver import SolverOptions
from repro.ordering import DEFAULT_ORDERING, ORDERINGS
from repro.tune import parse_recipe, recipe_spec
from repro.util.errors import ReproError


class TestConstruction:
    def test_defaults_match_solver_defaults(self):
        opts = parse_recipe(DEFAULT_ORDERING)
        assert opts == SolverOptions()
        assert recipe_spec(SolverOptions()) == DEFAULT_ORDERING

    def test_one_default_ordering_constant(self):
        from repro.cli import build_parser

        assert SolverOptions().ordering == DEFAULT_ORDERING
        args = build_parser().parse_args(["analyze", "orsreg1"])
        assert args.ordering == DEFAULT_ORDERING

    def test_params_normalized_sorted(self):
        opts = parse_recipe("dissect:refine=false,leaf_size=96")
        assert opts.ordering_params == (("leaf_size", 96), ("refine", False))

    def test_every_known_ordering_accepted(self):
        for ordering in ORDERINGS:
            assert parse_recipe(ordering).ordering == ordering

    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError):
            parse_recipe("metis")

    def test_rejects_bad_padding(self):
        for spec in ("amd:pad=1.0", "amd:pad=-0.1", "amd:pad=wide"):
            with pytest.raises(ValueError):
                parse_recipe(spec)

    def test_rejects_bad_supernode(self):
        with pytest.raises(ValueError):
            parse_recipe("amd:max=0")

    def test_hashable_key(self):
        a = parse_recipe("amd:pad=0.4")
        b = parse_recipe("amd:pad=0.4")
        assert a == b and hash(a) == hash(b)
        assert a != parse_recipe("amd")
        assert a.symbolic_key() == b.symbolic_key()

    def test_rejects_bad_mapping(self):
        # Recipes carry no mapping: a stored ``map=`` key is an unknown
        # ordering parameter, rejected with a message that names it.
        for spec, key in (
            ("amd:map=2d", "map"),
            ("amd:pad=0.4,map=2d:2x4", "map"),
            ("rcm:mapping=greedy", "mapping"),
        ):
            with pytest.raises(ReproError, match=f"parameter '{key}'"):
                parse_recipe(spec)


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            "mindeg",
            "amd",
            "amd:pad=0.4",
            "rcm:amalg=false",
            "dissect:leaf_size=96,pad=0.4,max=96",
            "natural:pad=0.1",
        ],
    )
    def test_roundtrip(self, spec):
        opts = parse_recipe(spec)
        assert recipe_spec(opts) == spec
        assert parse_recipe(recipe_spec(opts)) == opts

    def test_parse_aliases(self):
        opts = parse_recipe("amd:pad=0.4,max=96,amalg=off")
        assert opts.max_padding == 0.4
        assert opts.max_supernode == 96
        assert opts.amalgamation is False

    def test_parse_ordering_params(self):
        opts = parse_recipe("dissect:leaf_size=128,refine=false")
        assert opts.ordering_kwargs() == {"leaf_size": 128, "refine": False}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_recipe(":pad=0.4")
        with pytest.raises(ValueError):
            parse_recipe("amd:pad")
        with pytest.raises(ValueError):
            parse_recipe("metis")

    def test_str_is_spec(self):
        opts = SolverOptions(ordering="amd", max_padding=0.4)
        assert recipe_spec(opts) == "amd:pad=0.4"
        assert parse_recipe("amd:max=96,pad=0.4") == parse_recipe(
            "amd:pad=0.4,max=96"
        )


class TestOptionsWiring:
    def test_apply_sets_ordering_knobs(self):
        opts = parse_recipe("dissect:leaf_size=96,pad=0.4,max=96")
        assert opts.ordering == "dissect"
        assert opts.ordering_params == (("leaf_size", 96),)
        assert opts.max_padding == 0.4
        assert opts.max_supernode == 96
        assert opts.ordering_kwargs() == {"leaf_size": 96}

    def test_apply_preserves_unowned_knobs(self):
        base = SolverOptions(
            postorder=False, equilibrate=True, task_graph="sstar",
            amalgamation=False, max_padding=0.1,
        )
        opts = parse_recipe("amd", base)
        assert opts.postorder is False
        assert opts.equilibrate is True
        assert opts.task_graph == "sstar"
        assert opts.ordering == "amd"
        # The knobs a spec owns take their defaults when it omits them.
        assert opts.amalgamation is True
        assert opts.max_padding == SolverOptions().max_padding

    def test_mapping_stays_out_of_solver_options(self):
        # A recipe is purely symbolic: a spec sets five of the options'
        # nine fields, all part of the plan's identity, and nothing on it
        # can steer execution.
        assert [f.name for f in dataclasses.fields(SolverOptions)] == [
            "ordering", "ordering_params", "postorder", "amalgamation",
            "max_padding", "max_supernode", "task_graph", "equilibrate",
            "symbolic_params",
        ]
        opts = parse_recipe("dissect:leaf_size=96,amalg=false,pad=0.4,max=96")
        assert not hasattr(opts, "mapping")
        changed = {
            f.name
            for f in dataclasses.fields(opts)
            if getattr(opts, f.name) != getattr(SolverOptions(), f.name)
        }
        assert changed == {
            "ordering", "ordering_params", "amalgamation", "max_padding",
            "max_supernode",
        }


class TestStoredRecipes:
    """Recipe text written before mappings left recipes."""

    def test_cli_recipe_flag_reports_the_removal(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["analyze", "orsreg1", "--scale", "0.06", "--recipe", "amd:map=2d"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: bad --recipe" in err and "'map'" in err
