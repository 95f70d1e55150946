"""Pins the column and row layout of the LPs built over a synthetic case.

Each hash is the sha256 of LinearProgram.dump, which lists every column's
objective and bounds, every row's sense and rhs, and every nonzero in
index order. Any change to the column or row order, to a coefficient or to
the arithmetic that produces one changes the hash; the hashes change only
with a deliberate layout change.
"""

import hashlib

import pytest

from gridres.expansion import (
    BuildOptions,
    build_expansion_lp,
    build_lp,
    build_operations_lp,
    investment_entries,
)
from gridres.translate import SiteAllocation, build_portfolio

PINNED = {
    "expansion_relaxed": "6d6d54a66ac23f5a64be14a80313da111f5e9474b7840d8088e675261c764bbe",
    "expansion_none": "19cd2312a4f481d12621b8be977ba3b032c9726e52c45a1e1e9512f51bcf82c1",
    "subproblem": "c36003d39e9ce3adf1914e42f67efe80ba535848e710f7c63efebd93ee9d54b8",
    "operations": "2980e01e316270c2d5b0e559de9937e1b523104fc93403f87ce7de81785210e5",
}


@pytest.fixture(scope="module")
def layouts(synth_small):
    case = synth_small
    subproblem = BuildOptions(
        uc="relaxed",
        reserve=False,
        periods=(1,),
        fix={name: 0.0 for name, *_ in investment_entries(case)},
        include_investment_cost=False,
    )
    line = case.interregional_lines[0]
    allocation = SiteAllocation(line_capacity={line.id: 1.5 * line.capacity})
    portfolio = build_portfolio(case, allocation)
    portfolio.thermal_new[case.thermal_clusters[0].id] = 25.0
    return {
        "expansion_relaxed": build_expansion_lp(case, uc="relaxed")[0],
        "expansion_none": build_expansion_lp(case, uc="none")[0],
        "subproblem": build_lp(case, subproblem)[0],
        "operations": build_operations_lp(case, portfolio)[0],
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_lp_dump_matches_the_pinned_layout(layouts, tmp_path, name):
    path = tmp_path / f"{name}.txt"
    layouts[name].dump(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[name]
