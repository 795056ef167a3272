"""OrderingRecipe construction, spec round-trips, and options wiring."""

import pytest

from repro.numeric.solver import ORDERINGS, SolverOptions
from repro.tune import OrderingRecipe


class TestConstruction:
    def test_defaults_match_solver_defaults(self):
        r = OrderingRecipe()
        opts = SolverOptions()
        assert r.ordering == opts.ordering
        assert r.amalgamation == opts.amalgamation
        assert r.max_padding == opts.max_padding
        assert r.max_supernode == opts.max_supernode

    def test_one_default_ordering_constant(self):
        from repro.cli import build_parser
        from repro.numeric.solver import DEFAULT_ORDERING

        assert OrderingRecipe().apply() == SolverOptions()
        assert OrderingRecipe().ordering == DEFAULT_ORDERING
        args = build_parser().parse_args(["analyze", "orsreg1"])
        assert args.ordering == DEFAULT_ORDERING

    def test_params_normalized_sorted(self):
        r = OrderingRecipe(ordering="dissect", params=(("b", 2), ("a", 1)))
        assert r.params == (("a", 1), ("b", 2))

    def test_every_known_ordering_accepted(self):
        for ordering in ORDERINGS:
            assert OrderingRecipe(ordering=ordering).ordering == ordering

    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError):
            OrderingRecipe(ordering="metis")

    def test_rejects_bad_padding(self):
        with pytest.raises(ValueError):
            OrderingRecipe(max_padding=1.0)
        with pytest.raises(ValueError):
            OrderingRecipe(max_padding=-0.1)

    def test_rejects_bad_supernode(self):
        with pytest.raises(ValueError):
            OrderingRecipe(max_supernode=0)

    def test_hashable_key(self):
        a = OrderingRecipe(ordering="amd", max_padding=0.4)
        b = OrderingRecipe(ordering="amd", max_padding=0.4)
        assert a == b and hash(a) == hash(b)
        assert a != OrderingRecipe(ordering="amd")
        assert a.apply().symbolic_key() == b.apply().symbolic_key()

    def test_rejects_bad_mapping(self):
        # Every mapping is a bad mapping now: the field is gone, and both
        # text forms refuse it with the message that names the removal.
        with pytest.raises(TypeError):
            OrderingRecipe(mapping="2d")
        for spec in ("amd:map=2d", "amd:pad=0.4,map=2d:2x4", "rcm:mapping=greedy"):
            with pytest.raises(ValueError, match="no longer carry a mapping"):
                OrderingRecipe.parse(spec)


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
        r = OrderingRecipe.parse(spec)
        assert OrderingRecipe.parse(r.spec()) == r

    def test_parse_aliases(self):
        r = OrderingRecipe.parse("amd:pad=0.4,max=96,amalg=off")
        assert r.max_padding == 0.4
        assert r.max_supernode == 96
        assert r.amalgamation is False

    def test_parse_ordering_params(self):
        r = OrderingRecipe.parse("dissect:leaf_size=128,refine=false")
        assert dict(r.params) == {"leaf_size": 128, "refine": False}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            OrderingRecipe.parse(":pad=0.4")
        with pytest.raises(ValueError):
            OrderingRecipe.parse("amd:pad")
        with pytest.raises(ValueError):
            OrderingRecipe.parse("metis")

    def test_str_is_spec(self):
        r = OrderingRecipe(ordering="amd", max_padding=0.4)
        assert str(r) == r.spec() == "amd:pad=0.4"


class TestOptionsWiring:
    def test_apply_sets_ordering_knobs(self):
        r = OrderingRecipe(
            ordering="dissect",
            params=(("leaf_size", 96),),
            max_padding=0.4,
            max_supernode=96,
        )
        opts = r.apply()
        assert opts.ordering == "dissect"
        assert opts.ordering_params == (("leaf_size", 96),)
        assert opts.max_padding == 0.4
        assert opts.max_supernode == 96
        assert opts.ordering_kwargs() == {"leaf_size": 96}

    def test_apply_preserves_unowned_knobs(self):
        base = SolverOptions(postorder=False, equilibrate=True)
        opts = OrderingRecipe(ordering="amd").apply(base)
        assert opts.postorder is False
        assert opts.equilibrate is True
        assert opts.ordering == "amd"

    def test_mapping_stays_out_of_solver_options(self):
        # A recipe is purely symbolic: its fields are exactly the five
        # apply() folds into SolverOptions, so recipe identity is plan
        # identity and nothing on it can steer execution.
        import dataclasses

        assert [f.name for f in dataclasses.fields(OrderingRecipe)] == [
            "ordering", "params", "amalgamation", "max_padding", "max_supernode",
        ]
        r = OrderingRecipe(
            ordering="dissect", params=(("leaf_size", 96),), amalgamation=False,
            max_padding=0.4, max_supernode=96,
        )
        opts = r.apply()
        assert not hasattr(opts, "mapping")
        assert (
            opts.ordering, opts.ordering_params, opts.amalgamation,
            opts.max_padding, opts.max_supernode,
        ) == tuple(getattr(r, f.name) for f in dataclasses.fields(r))


class TestStoredRecipes:
    """Recipe text written before mappings left recipes."""

    def test_cli_recipe_flag_reports_the_removal(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["analyze", "orsreg1", "--scale", "0.06", "--recipe", "amd:map=2d"])
        assert exc.value.code == 2
        assert "no longer carry a mapping" in capsys.readouterr().err
