"""Pins the column and row layout of the LPs built over a synthetic case.

Each hash is the sha256 of LinearProgram.dump, which lists every column's
objective and bounds, every row's sense and rhs, and every nonzero in
index order. Any change to the column or row order, to a coefficient or to
the arithmetic that produces one changes the hash; the hashes change only
with a deliberate layout change.
"""

import hashlib

import pytest

PINNED = {
    "expansion_relaxed": "6d6d54a66ac23f5a64be14a80313da111f5e9474b7840d8088e675261c764bbe",
    "expansion_none": "19cd2312a4f481d12621b8be977ba3b032c9726e52c45a1e1e9512f51bcf82c1",
    "subproblem": "c36003d39e9ce3adf1914e42f67efe80ba535848e710f7c63efebd93ee9d54b8",
    "operations": "2980e01e316270c2d5b0e559de9937e1b523104fc93403f87ce7de81785210e5",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_lp_dump_matches_the_pinned_layout(synth_small_lps, tmp_path, name):
    path = tmp_path / f"{name}.txt"
    synth_small_lps[name].dump(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[name]
