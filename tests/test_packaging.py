"""Packaging metadata: every console script declared in pyproject.toml
resolves to a callable of the package, every name the package exports or
re-exports exists, and so does every name the traced bench wraps; a fresh
catalog load imports only the modules it needs; and the source checks that
the tier-1 workflow runs with the stdlib ast pass on the package; the
A side and the period operators import no elimination engine."""

import ast
import glob
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ises

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
SRC = ROOT / "src"

MODULES = sorted(m.name for m in pkgutil.iter_modules(ises.__path__, "ises.") if not m.ispkg)


def test_console_script_targets_import():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{name} = {target} is not callable"


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing objects: {missing}"


def test_every_name_the_package_imports_exists():
    tree = ast.parse(Path(ises.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module("." * node.level + (node.module or ""), "ises")
        for alias in node.names:
            assert hasattr(mod, alias.name), f"{mod.__name__} has no {alias.name}"
    assert ises._LAZY
    for name, module in ises._LAZY.items():
        mod = importlib.import_module(module, "ises")
        assert getattr(ises, name) is getattr(mod, name), f"ises.{name} is not {mod.__name__}.{name}"
    assert not hasattr(ises, "no_such_name")


def fresh_modules(code):
    """The sorted ``sys.modules`` of a fresh interpreter after ``code``,
    with ``src`` first on its path and no PYTHONPATH."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\nprint(*sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


def test_a_catalog_load_imports_only_numcore_and_isespoly():
    """``import ises; load_catalog()`` is the start of every entry point, so
    it compiles no module (nor the dataclasses machinery) it does not use."""
    loaded = fresh_modules("import ises; ises.load_catalog()")
    assert {m for m in loaded if m.split(".")[0] == "ises"} == {
        "ises",
        "ises.data",
        "ises.isespoly",
        "ises.numcore",
    }
    if "dataclasses" not in fresh_modules("pass"):
        assert "dataclasses" not in loaded
    assert "ises.jacobi" in fresh_modules("import ises; ises.JacobianAlgebra")


def assert_no_elimination_engine(module):
    """``ises.<module>`` imports neither ``jacobi`` nor ``MultiPoly``, and a
    fresh ``import ises.<module>`` loads no ``ises.jacobi``."""
    tree = ast.parse((SRC / "ises" / f"{module}.py").read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert ("numcore", "DomainError") in imported
    assert not {(m, name) for m, name in imported if "jacobi" in (m, name) or name == "MultiPoly"}
    loaded = fresh_modules(f"import ises.{module}")
    assert f"ises.{module}" in loaded and "ises.jacobi" not in loaded


def test_the_a_side_imports_no_elimination_engine():
    """FJRW counts broad sectors by a trace average over the group, so
    ``ises.fjrw`` needs no Milnor ring."""
    assert_no_elimination_engine("fjrw")


def test_the_period_operators_import_no_elimination_engine():
    """``MarginalData.derive`` decides that a marginal is nonzero in Jac(W)
    when its row is made, so ``ises.pfsolve`` needs no Milnor ring, and no
    module of the package defines ``normal_form``: it is a test-side
    reference (tests/test_jacobi.py)."""
    assert_no_elimination_engine("pfsolve")
    defined = {
        node.name
        for path in (SRC / "ises").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert "groebner" in defined and "normal_form" not in defined


def test_the_bench_tracer_wraps_and_restores_names_that_exist(monkeypatch):
    """Traced bench runs swap names in the package's modules for timed
    wrappers, so deleting or renaming one of those names fails here."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    modules = [importlib.import_module(name) for name in MODULES]
    before = [dict(vars(mod)) for mod in modules]
    tracer = tracing.Tracer()
    try:
        workloads.install_wrappers(tracer)
        wrapped = [
            value
            for mod, names in zip(modules, before)
            for name, value in vars(mod).items()
            if names.get(name) is not value
        ]
    finally:
        tracer.unwrap_all()
    assert wrapped and all(hasattr(value, "__wrapped__") for value in wrapped)
    assert [dict(vars(mod)) for mod in modules] == before


WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def workflow_script(name):
    """The script that the tier-1 workflow keeps in its env block
    ``name: |``, and the files that its step passes it (globs expanded,
    "--" kept), so that the workflow holds the one copy of both."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"{name}: |")
    indent = len(lines[start]) - len(lines[start].lstrip())
    body = []
    for line in lines[start + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        body.append(line)
    call = f'python -c "${name}"'
    args = next(line for line in lines if call in line).split(call, 1)[1].split()
    files = [p for arg in args for p in (sorted(glob.glob(arg, root_dir=ROOT)) if "*" in arg else [arg])]
    return textwrap.dedent("\n".join(body)), files


def run_script(script, args):
    return subprocess.run(
        [sys.executable, "-c", script, *args], cwd=ROOT, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "name, planted, args, message",
    [
        ("UNUSED_IMPORTS", "import os\n", [], "os imported but unused"),
        ("NO_CONSUMER", "def orphan():\n    return 0\n", ["--"], "orphan is read nowhere"),
    ],
    ids=["unused-imports", "no-consumer"],
)
def test_the_workflow_source_checks_pass_and_catch_a_planted_fault(tmp_path, name, planted, args, message):
    """The stdlib-ast steps of the tier-1 workflow (unused imports, package
    code without a consumer) pass on the workflow's own file lists, and
    each exits 1 on a planted file with the fault it looks for."""
    script, files = workflow_script(name)
    assert files and all((ROOT / f).is_file() for f in files if f != "--")
    done = run_script(script, files)
    assert done.returncode == 0, done.stdout + done.stderr
    path = tmp_path / "planted.py"
    path.write_text(planted)
    done = run_script(script, [str(path), *args])
    assert done.returncode == 1 and message in done.stdout, done.stdout + done.stderr
