"""Golden-number regression tests.

The whole pipeline is deterministic (seeded generators, deterministic
algorithms), so the analysis statistics of each benchmark analog are frozen
here, once per fill-reducing ordering that has a standing role: the exact
``mindeg`` (the paper's ordering and the fill oracle — its tables are the
ones this suite has always pinned) and the default ``amd``. A change in any
number means an algorithm's behaviour changed — which must be a conscious
decision, not an accident. Regenerate with:

    python -c "from tests.test_regression_numbers import regenerate; regenerate()"
"""

import dataclasses

import pytest

from repro.eval.pipeline import PAPER_AMALGAMATION
from repro.numeric.factor import LUFactorization
from repro.numeric.solver import SolverOptions
from repro.ordering import DEFAULT_ORDERING
from repro.sparse.generators import paper_matrix
from tests import conftest

SCALE = 0.15

GOLDEN = {
    "sherman3": dict(n=798, nnz=2893, fill=27677, sn_raw=541, sn=306, btf=49, tasks=1263, edges=1812),
    "sherman5": dict(n=540, nnz=2504, fill=35216, sn_raw=278, sn=147, btf=2, tasks=697, edges=1098),
    "lnsp3937": dict(n=588, nnz=2416, fill=17764, sn_raw=360, sn=241, btf=2, tasks=965, edges=1445),
    "lns3937": dict(n=588, nnz=2162, fill=13495, sn_raw=382, sn=236, btf=9, tasks=889, edges=1286),
    "orsreg1": dict(n=363, nnz=1907, fill=20038, sn_raw=169, sn=78, btf=1, tasks=326, edges=496),
    "saylr4": dict(n=540, nnz=2728, fill=31595, sn_raw=254, sn=130, btf=2, tasks=587, edges=913),
    "goodwin": dict(n=1104, nnz=24048, fill=135708, sn_raw=197, sn=137, btf=93, tasks=325, edges=376),
}

# Work the sequential engine does on each analog (LazyS+ accounting). Any
# change here means the arithmetic changed, not just the bookkeeping around it.
GOLDEN_LAZY = {
    "sherman3": dict(n_updates_skipped=252, n_updates_run=705, flops_saved=5970482, flops_spent=1234909),
    "goodwin": dict(n_updates_skipped=44, n_updates_run=144, flops_saved=31572056, flops_spent=9394192),
}

# The same two tables under the defaults (amd, and the measured amalgamation
# bounds), regenerated once when each became the default.
GOLDEN_DEFAULT = {
    "sherman3": dict(n=798, nnz=2893, fill=23850, sn_raw=539, sn=120, btf=48, tasks=599, edges=863),
    "sherman5": dict(n=540, nnz=2504, fill=32622, sn_raw=282, sn=53, btf=2, tasks=280, edges=454),
    "lnsp3937": dict(n=588, nnz=2416, fill=16683, sn_raw=366, sn=88, btf=2, tasks=344, edges=511),
    "lns3937": dict(n=588, nnz=2162, fill=12931, sn_raw=388, sn=79, btf=9, tasks=318, edges=463),
    "orsreg1": dict(n=363, nnz=1907, fill=19123, sn_raw=175, sn=28, btf=1, tasks=136, edges=216),
    "saylr4": dict(n=540, nnz=2728, fill=30137, sn_raw=253, sn=43, btf=2, tasks=214, edges=341),
    "goodwin": dict(n=1104, nnz=24048, fill=132246, sn_raw=193, sn=86, btf=93, tasks=331, edges=490),
}

GOLDEN_LAZY_DEFAULT = {
    "sherman3": dict(n_updates_skipped=61, n_updates_run=418, flops_saved=7155269, flops_spent=2067882),
    "goodwin": dict(n_updates_skipped=41, n_updates_run=204, flops_saved=38639792, flops_spent=11801534),
}


def analyzed(name: str, ordering: str) -> tuple:
    """``mindeg`` rows are the paper's configuration, amalgamation bounds
    included (what :mod:`repro.eval` pins); the default-ordering rows take
    every default as it stands."""
    a = paper_matrix(name, scale=SCALE)
    bounds = PAPER_AMALGAMATION if ordering == "mindeg" else {}
    return conftest.analyzed(a, ordering=ordering, **bounds)


def current_stats(name: str, ordering: str = "mindeg") -> dict:
    st = analyzed(name, ordering)[0].stats()
    return dict(
        n=st.n,
        nnz=st.nnz,
        fill=st.nnz_filled,
        sn_raw=st.n_supernodes_raw,
        sn=st.n_supernodes,
        btf=st.n_btf_blocks,
        tasks=st.n_tasks,
        edges=st.n_edges,
    )


def current_lazy(name: str, ordering: str = "mindeg") -> dict:
    plan, a_work = analyzed(name, ordering)
    eng = LUFactorization(a_work, plan.bp, layout=plan.layout)
    eng.factor_sequential()
    return dataclasses.asdict(eng.lazy_stats)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analysis_numbers_frozen(name):
    assert current_stats(name) == GOLDEN[name], (
        f"{name}: pipeline behaviour changed — if intentional, regenerate "
        "the GOLDEN table (see module docstring)"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_LAZY))
def test_lazy_stats_frozen(name):
    assert current_lazy(name) == GOLDEN_LAZY[name]


def test_default_tables_pin_the_default_ordering():
    assert SolverOptions().ordering == DEFAULT_ORDERING == "amd"


@pytest.mark.parametrize("name", sorted(GOLDEN_DEFAULT))
def test_default_analysis_numbers_frozen(name):
    assert current_stats(name, DEFAULT_ORDERING) == GOLDEN_DEFAULT[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_LAZY_DEFAULT))
def test_default_lazy_stats_frozen(name):
    assert current_lazy(name, DEFAULT_ORDERING) == GOLDEN_LAZY_DEFAULT[name]


def regenerate() -> None:  # pragma: no cover - maintenance helper
    for ordering in ("mindeg", DEFAULT_ORDERING):
        print(f"# {ordering}")
        for name in sorted(GOLDEN):
            print(f'    "{name}": {current_stats(name, ordering)},')
        for name in sorted(GOLDEN_LAZY):
            print(f'    "{name}": {current_lazy(name, ordering)},')
