"""The package's public surface, and what importing it loads."""

import os
import subprocess
import sys
import textwrap

import pytest

import gridres

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gridres.__file__)))


def _python(code, *path):
    """Run code in a fresh interpreter that imports gridres from this
    checkout (after the directories in path); return the completed process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*path, SRC]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_every_exported_name_resolves():
    assert [name for name in gridres.__all__ if not hasattr(gridres, name)] == []
    assert len(set(gridres.__all__)) == len(gridres.__all__)


def test_importing_gridres_loads_neither_scipy_optimize_nor_scipy_sparse():
    run = _python("""
        import sys
        import gridres, gridres.cli
        print(sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules))
    """)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"  # and the import itself prints nothing


@pytest.mark.parametrize("first", ["gridres", "scipy"])
def test_scipy_optimize_shares_the_highs_bindings_in_either_import_order(first):
    imports = ["import gridres.lp", "import scipy.optimize"]
    run = _python("\n".join(imports if first == "gridres" else imports[::-1]) + """
import scipy.optimize._highspy._core as core
assert core is gridres.lp.highs
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
print(res.status, res.fun)
""")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0 1.0\n"


def test_a_scipy_without_the_highs_bindings_fails_at_import(tmp_path):
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    run = _python("import gridres", str(tmp_path))
    assert run.returncode == 1
    assert "ImportError: gridres needs scipy>=1.15" in run.stderr
