"""Reachability audit: every ``src/repro`` function some entry point enters.

Runs the entry points — every CLI subcommand, every ``repro bench``
experiment, ``repro.api``, ``SolverService``, ``refactorize_with_plan``
on each engine — under ``sys.setprofile`` / ``threading.setprofile``, once
per selector value (``REPRO_ENGINE``, ``REPRO_SANITIZE``,
``REPRO_ANALYZE``) and per request option. Forked proc
workers record from inside the child. Then it lists every function never
entered with its verdict from the one verdict table, the "Reachability
verdicts" section of docs/architecture.md, and exits 1 when an unreached
function has no row there or a row names nothing left unreached (a
*stale* row: its unit was deleted or is now reached)::

    python benchmarks/reachability.py [--report reachability.txt]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
KINDS = ("request path", "paper artifact", "oracle", "benchmark harness")

seen: set = set()
_log_dir = _child_log = None


def _hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


def _child_hook(frame, event, arg):
    # A forked worker ends in os._exit: write each new function at once.
    if event == "call" and frame.f_code not in seen:
        seen.add(frame.f_code)
        _child_log.write(f"{frame.f_code.co_filename}\t{frame.f_code.co_firstlineno}\n")
        _child_log.flush()


def _in_child() -> None:
    global _child_log
    _child_log = open(os.path.join(_log_dir, f"{os.getpid()}.log"), "a")
    sys.setprofile(_child_hook)
    threading.setprofile(_child_hook)


def cli(*argv: str) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        main(list(argv))


def requests(**opts) -> None:
    """One pass over the request path: api, service, warm refactors, and
    the unhappy inputs (a zero-free diagonal to find, a singular matrix)."""
    import numpy as np

    from repro import SolverOptions
    from repro.api import lu, solve
    from repro.obs import Tracer
    from repro.serve import SolverService, build_plan, refactorize_with_plan
    from repro.sparse import paper_matrix, permute
    from repro.util.errors import SingularMatrixError

    a = paper_matrix("sherman3", scale=0.12)
    b = np.ones(a.n_cols)
    fact = lu(a, trace=True, **opts)
    fact.solve(b), fact.solve_refined(b), fact.condition_estimate, fact.stats
    fact.trace.export()
    fact.refactor(a.data * 2.0).refactor(a)
    lu(a, plan=fact.plan).solve(np.ones((a.n_cols, 3)))
    solve(a, b, **opts)
    solve(permute(a, row_perm=np.random.default_rng(0).permutation(a.n_cols)), b)
    singular = a.data.copy()
    singular[: a.indptr[1]] = 0.0
    singular = a.with_values(singular)
    options = SolverOptions(**opts)
    plan = build_plan(a, options)
    for engine in ("sequential", "threaded", "proc"):
        refactorize_with_plan(plan, a, engine=engine, n_workers=2).solve(b)
        with contextlib.suppress(SingularMatrixError):
            refactorize_with_plan(plan, singular, engine=engine, n_workers=2)
    with SolverService(n_workers=2, options=options, tracer=Tracer()) as svc:
        [p.result() for p in [svc.submit(a, b) for _ in range(3)]]
        svc.solve(a, b), svc.stats()
    with SolverService(n_workers=0, options=options) as svc:
        pending = svc.submit(singular, b)
        svc.process_once()
        with contextlib.suppress(SingularMatrixError):
            pending.result()


def run_all(tmp: str) -> None:
    from repro.ordering import ORDERINGS
    from repro.sparse import paper_matrix
    from repro.sparse.io import write_rutherford_boeing

    rua, mtx = os.path.join(tmp, "m.rua"), os.path.join(tmp, "m.mtx")
    write_rutherford_boeing(paper_matrix("orsreg1", scale=0.1), rua)
    cli("generate", "orsreg1", "-o", mtx, "--scale", "0.1")
    cli("matrices")
    cli("selfcheck")
    cli("selfcheck", "--json")
    cli("bench", "all", "--scale", "0.05")
    cli("analyze", "all", "--verify", "--scale", "0.05")
    cli("analyze", "orsreg1", "--spy", "--forest", "--scale", "0.1")
    cli("trace", "orsreg1", "--scale", "0.1", "--json", os.path.join(tmp, "t.json"),
        "--chrome", os.path.join(tmp, "c.json"))
    cli("tune", "orsreg1", "--quick", "--json", os.path.join(tmp, "tune.json"))
    for src in (mtx, rua):
        cli("solve", src, "--refine", "--condest", "-o", os.path.join(tmp, "x.txt"))
    cli("solve", "orsreg1", "--scale", "0.1", "--rhs", "random", "--recipe", "amd:pad=0.4")
    cli("solve", "orsreg1", "--scale", "0.06", "--recipe", "auto")
    requests()
    selectors = [("REPRO_ENGINE", e) for e in ("sequential", "threaded", "proc")]
    selectors += [("REPRO_SANITIZE", "1"), ("REPRO_ANALYZE", "1")]
    for var, value in selectors:
        os.environ[var] = value
        try:
            requests()
            cli("analyze", "sherman3", "--sanitize", "--scale", "0.1")
        finally:
            del os.environ[var]
    for opts in [{"ordering": o} for o in ORDERINGS] + [
        {"postorder": False}, {"amalgamation": False},
        {"task_graph": "sstar"}, {"equilibrate": True},
    ]:
        requests(**opts)


def functions() -> dict:
    """``(file, first line) -> (module:qualname, body lines)`` of every
    function in ``src/repro``; lambdas and comprehensions belong to the
    function around them."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        mod = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            if code.co_flags & 2 and not code.co_name.startswith("<"):  # CO_NEWLOCALS
                last = max(line for _, _, line in code.co_lines() if line)
                out[(code.co_filename, code.co_firstlineno)] = (
                    f"{mod}:{code.co_qualname}", last - code.co_firstlineno + 1)
    return out


def verdicts() -> dict:
    """``module[:Qualname]`` -> (verdict, reason), from the rows
    ``| `module` | `unit`, ... (or *) | verdict | reason |`` of the
    architecture document's verdict table."""
    text = (ROOT / "docs" / "architecture.md").read_text()
    table = text.split("## Reachability verdicts", 1)[1].split("\n## ", 1)[0]
    out = {}
    for row in table.splitlines():
        cells = [c.strip() for c in row.strip().strip("|").split("|")]
        if len(cells) != 4 or cells[2] not in KINDS:
            continue
        mod = "repro." + cells[0].strip("`")
        for unit in re.findall(r"`([\w.]+)`", cells[1]) or [None]:
            out[f"{mod}:{unit}" if unit else mod] = (cells[2], cells[3])
    return out


def verdict_key(name: str, table: dict):
    """The most specific prefix of ``name`` that ``table`` has a row for."""
    mod, _, qual = name.partition(":")
    parts = qual.split(".")
    keys = [f"{mod}:{'.'.join(parts[:i])}" for i in range(len(parts), 0, -1)]
    return next((k for k in keys + [mod] if k in table), None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", help="also write the report to this file")
    args = parser.parse_args()
    global _log_dir
    _log_dir = tempfile.mkdtemp(prefix="reach-")
    os.register_at_fork(after_in_child=_in_child)
    sys.setprofile(_hook)
    threading.setprofile(_hook)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run_all(tmp)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    reached = {(c.co_filename, c.co_firstlineno) for c in seen}
    for log in Path(_log_dir).glob("*.log"):
        for line in log.read_text().splitlines():
            fname, first = line.split("\t")
            reached.add((fname, int(first)))
    shutil.rmtree(_log_dir, ignore_errors=True)
    units, table = functions(), verdicts()
    unreached = sorted(v for k, v in units.items() if k not in reached)
    # A function nested in an unreached one is reported with it.
    names = {name for name, _ in unreached}
    unreached = [(n, size) for n, size in unreached
                 if not any(n.startswith(p + ".<locals>.") for p in names)]
    lines, unlisted, used = [], 0, set()
    for name, size in unreached:
        key = verdict_key(name, table)
        unlisted += key is None
        used.add(key)
        lines.append(f"{size:5d}  {name}  [{table[key][0] if key else 'NO VERDICT'}]")
    stale = sorted(set(table) - used)
    lines += [f"stale verdict row: {key}" for key in stale]
    lines.append(
        f"{len(units) - len(unreached)}/{len(units)} functions entered; "
        f"{sum(s for _, s in unreached)}/{sum(s for _, s in units.values())} "
        f"body lines never entered; {unlisted} without a verdict, "
        f"{len(stale)} stale verdict rows")
    text = "\n".join(lines)
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
