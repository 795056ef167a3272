"""CLI tests (``python -m repro``)."""

import argparse
import pkgutil

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestSubcommands:
    def test_exact_subcommand_set(self):
        # Bench harnesses live under benchmarks/, not behind the CLI.
        sub = next(
            a
            for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == {
            "solve", "analyze", "bench", "trace", "matrices", "selfcheck",
            "tune", "generate",
        }

    def test_no_bench_module_ships_in_the_package(self):
        import repro

        names = [
            m.name
            for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        ]
        assert len(names) > 50  # the walk really descended into subpackages
        assert [n for n in names if n.rsplit(".", 1)[-1] == "bench"] == []


class TestMatrices:
    def test_lists_analogs(self, capsys):
        assert main(["matrices"]) == 0
        out = capsys.readouterr().out
        for name in ("sherman3", "goodwin"):
            assert name in out


class TestAnalyze:
    def test_analog(self, capsys):
        assert main(["analyze", "orsreg1", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "fill ratio" in out
        assert "supernodes" in out

    def test_spy_and_forest_flags(self, capsys):
        assert (
            main(["analyze", "sherman3", "--scale", "0.1", "--spy", "--forest"]) == 0
        )
        out = capsys.readouterr().out
        assert "Abar (static fill)" in out
        assert "block LU eforest" in out

    def test_equilibrate_flag(self, capsys):
        assert (
            main(["solve", "orsreg1", "--scale", "0.1", "--equilibrate"]) == 0
        )
        assert "residual=" in capsys.readouterr().out

    def test_pipeline_flags(self, capsys):
        assert (
            main(
                [
                    "analyze",
                    "orsreg1",
                    "--scale",
                    "0.1",
                    "--no-postorder",
                    "--ordering",
                    "rcm",
                    "--task-graph",
                    "sstar",
                ]
            )
            == 0
        )
        assert "BTF diagonal blocks" in capsys.readouterr().out


class TestSolve:
    def test_solve_analog(self, capsys):
        assert main(["solve", "orsreg1", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "residual=" in out
        residual = float(out.split("residual=")[1].split()[0])
        assert residual < 1e-8

    def test_solve_with_refine_and_condest(self, capsys):
        assert (
            main(["solve", "orsreg1", "--scale", "0.1", "--refine", "--condest"]) == 0
        )
        out = capsys.readouterr().out
        assert "refinement:" in out
        assert "condition estimate" in out

    def test_solve_writes_solution(self, tmp_path, capsys):
        out_file = tmp_path / "x.txt"
        assert (
            main(["solve", "orsreg1", "--scale", "0.1", "-o", str(out_file)]) == 0
        )
        x = np.loadtxt(out_file)
        assert x.ndim == 1 and x.size > 0

    def test_solve_random_rhs(self, capsys):
        assert main(["solve", "orsreg1", "--scale", "0.1", "--rhs", "random"]) == 0

    def test_solve_from_file(self, tmp_path, capsys):
        gen_file = tmp_path / "m.mtx"
        assert (
            main(["generate", "orsreg1", "--scale", "0.1", "-o", str(gen_file)]) == 0
        )
        capsys.readouterr()
        assert main(["solve", str(gen_file)]) == 0
        assert "residual=" in capsys.readouterr().out


class TestGenerate:
    def test_writes_mtx(self, tmp_path, capsys):
        out_file = tmp_path / "g.mtx"
        assert (
            main(["generate", "sherman5", "--scale", "0.1", "-o", str(out_file)]) == 0
        )
        text = out_file.read_text()
        assert text.startswith("%%MatrixMarket")

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "nope", "-o", "x.mtx"])


class TestBench:
    def test_bench_table1(self, capsys):
        assert main(["bench", "table1", "--scale", "0.1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "table9"])


class TestTrace:
    def test_renders_span_tree_and_metrics(self, capsys):
        assert main(["trace", "orsreg1", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        for name in ("analyze", "factorize", "solve", "ordering"):
            assert name in out
        assert "kernel.gemm.flops" in out
        assert "engine.busy_seconds" in out

    def test_writes_valid_telemetry_json(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_document

        path = tmp_path / "trace.json"
        assert main(["trace", "orsreg1", "--scale", "0.15", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert validate_document(doc) == []
        assert doc["meta"]["matrix"] == "orsreg1"

    def test_writes_chrome_trace(self, tmp_path, capsys):
        import json

        path = tmp_path / "chrome.json"
        assert main(["trace", "orsreg1", "--scale", "0.15", "--chrome", str(path)]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)


class TestSelfcheckJSON:
    def test_json_report(self, capsys):
        import json

        assert main(["selfcheck", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.selfcheck"
        assert doc["ok"] is True
        assert any(
            c["name"] == "telemetry export is schema-valid" for c in doc["checks"]
        )
        assert "factorize" in doc["trace_summary"]


class TestTune:
    def test_quick_smoke(self, capsys):
        assert main(["tune", "sherman3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "winning recipe" in out
        assert "candidates (best first)" in out

    def test_writes_valid_bench_json(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_bench_document

        path = tmp_path / "tune.json"
        assert main(["tune", "sherman3", "--quick", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert validate_bench_document(doc) == []
        assert doc["name"] == "tune"
        assert not {"second_call", "cache", "searched"} & set(doc["data"])
        assert doc["data"]["recipe"]
        assert len(doc["data"]["candidates"]) >= 5


class TestRecipeFlag:
    def test_analyze_with_recipe(self, capsys):
        assert (
            main(
                ["analyze", "sherman3", "--scale", "0.1",
                 "--recipe", "amd:pad=0.4"]
            )
            == 0
        )
        assert "supernodes" in capsys.readouterr().out

    def test_solve_with_recipe(self, capsys):
        assert (
            main(["solve", "orsreg1", "--scale", "0.1", "--recipe", "rcm"]) == 0
        )
        out = capsys.readouterr().out
        residual = float(out.split("residual=")[1].split()[0])
        assert residual < 1e-8

    def test_recipe_auto(self, capsys):
        assert (
            main(
                ["analyze", "sherman3", "--scale", "0.08", "--recipe", "auto"]
            )
            == 0
        )
        assert "autotuned recipe:" in capsys.readouterr().out

    def test_bad_recipe_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "sherman3", "--recipe", "metis"])

    def test_unknown_recipe_parameter_rejected(self, capsys):
        # rcm takes no parameters: the key fails when the options are
        # built, as a usage error, not as a traceback from the ordering.
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "orsreg1", "--scale", "0.06",
                  "--recipe", "rcm:leaf_size=3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: bad --recipe" in err and "'leaf_size'" in err
