"""The package's public surface, and what importing it loads."""

import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap

import pytest

import gridres
from gridres.lp import GE, LpBuilder, solve_simplex

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


def test_the_benchmark_finds_what_it_calls_in_gridres(monkeypatch):
    # ladderbench/ is run against this package but tested apart from it;
    # its tracer wraps gridres functions by name, and a name that is gone
    # makes the benchmark's metrics None. tracing.py imports only the
    # standard library; its dataclasses need it in sys.modules.
    path = os.path.join(os.path.dirname(SRC), "ladderbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("ladderbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}" for module, name in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(f"gridres.{module}"), name, None))
    ]
    assert missing == []
    # the one-element builder calls of ladderbench/tests, names included
    b = LpBuilder()
    x = b.var("x", obj=1.0)
    b.row("floor", GE, 1.0, [(x, 1.0)])
    assert solve_simplex(b.build()).objective == pytest.approx(1.0, abs=1e-9)
