"""The package's surface: what the root exports, what importing the CLI
loads, the names the benchmark's tracer looks up, the fixed tolerances a
report echoes, the imports of every source module, and the modules that
may read mpmath."""

import ast
import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hhbounds
from hhbounds import bounds, corpus, means, oracle, records
from hhbounds.corpus import GridSpec, Interval
from hhbounds.harness import BoundClaim, CampaignConfig

SRC = Path(hhbounds.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_root_exports_only_the_version():
    assert hhbounds.__all__ == ["__version__"]


def test_root_import_loads_no_submodule():
    code = "import sys, hhbounds; print(sorted(m for m in sys.modules if m.startswith('hhbounds.')))"
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout == "[]\n"


def test_cli_import_loads_no_process_pool():
    # campaign workers are forked with os.fork and os.pipe; importing
    # multiprocessing or concurrent.futures would add 6-8 ms to each start
    code = (
        "import sys, hhbounds.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout == "[]\n"


def test_tracer_finds_every_name_it_wraps():
    # bench/tracer.py wraps these by (module, name) once hhbounds.cli is
    # imported, and bench/checks.py counts records by BoundClaim's flags
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("hhbounds.cli")
    missing = [
        (mod, name) for mod, name, _ in tracer.WRAPPED
        if not hasattr(sys.modules.get(f"hhbounds.{mod}"), name)
    ]
    assert missing == []
    assert {"uses_lambda", "uses_q"} <= {f.name for f in dataclasses.fields(BoundClaim)}


def test_config_echoes_the_fixed_tolerances():
    echo = CampaignConfig().as_dict()
    assert {k: echo[k] for k in ("tol", "eq_tol", "oracle_tol", "pconvex_grid")} == {
        "tol": 1e-9, "eq_tol": 1e-12, "oracle_tol": 1e-12, "pconvex_grid": [41, 41, 21],
    }


def _check_proposition(**kw):
    return means.check_proposition(1, 1, 2, 3, **kw)


def _integrate(**kw):
    return oracle.integrate(np.exp, (0.0, 1.0), **kw)


def _check_p_convex(**kw):
    return corpus.check_p_convex(np.exp, Interval(0.0, 1.0), **kw)


def _classify_row(**kw):
    return records.classify_row(1.0, [2.0], 1e-9, 1e-12, **kw)


def _bound_theorem6_mp(**kw):
    return bounds.bound_theorem6_mp(Interval(0, 1), 0, 1.7, 1, 2, "derived", **kw)


@pytest.mark.parametrize(
    "call, keyword, value",
    [
        pytest.param(call, keyword, value, id=f"{call.__name__.lstrip('_')}-{keyword}")
        for call, keyword, value in [
            (CampaignConfig, "tol", 1e-9),
            (CampaignConfig, "eq_tol", 1e-12),
            (CampaignConfig, "oracle_tol", 1e-12),
            (CampaignConfig, "pconvex_grid", GridSpec()),
            (_check_proposition, "tol", 1e-9),
            (_check_proposition, "eq_tol", 1e-12),
            (_check_proposition, "dps", 50),
            (_integrate, "initial_panels", 8),
            (_check_p_convex, "tol_abs", 1e-12),
            (_classify_row, "lhs_mp", None),
            (_bound_theorem6_mp, "dps", 50),
        ]
    ],
)
def test_fixed_values_take_no_keyword(call, keyword, value):
    with pytest.raises(TypeError):
        call(**{keyword: value})


def _unused_imports(path: Path) -> list[str]:
    """The names a module's top-level imports bind that its code never
    reads and its ``__all__`` does not list."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_import_is_used(module):
    assert _unused_imports(SRC / module) == []


def _mpmath_readers(path: Path) -> tuple[bool, bool]:
    """Whether a module imports mpmath (or a part of it), and whether it
    calls a function named ``workdps``."""
    tree = ast.parse(path.read_text())
    imports = calls = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports |= any(a.name.split(".")[0] == "mpmath" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imports |= node.module.split(".")[0] == "mpmath"
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            calls |= name == "workdps"
    return imports, calls


def test_only_bounds_and_oracle_read_mpmath():
    # a decided value is a float, a Fraction or a root of bounds: the
    # 50-digit root is fixed inside bounds, and oracle.to_mpf rounds a
    # rational for it, so no other module sets a precision
    readers = {
        path.name: _mpmath_readers(path) for path in sorted(SRC.glob("*.py"))
    }
    assert {name for name, (imports, _) in readers.items() if imports} == {
        "bounds.py", "oracle.py",
    }
    assert {name for name, (_, calls) in readers.items() if calls} <= {"bounds.py"}
