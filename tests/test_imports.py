"""Every module-level import in the package is used by its module, and the
slow scipy submodules load only where they are called."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import levyfield

PACKAGE = Path(levyfield.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but unused: {unused}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(d)\n")
    assert imported_names(tree) == {"os": 1, "b": 2, "d": 2}
    assert set(imported_names(tree)) - used_names(tree) == {"os", "b"}


def test_import_loads_neither_scipy_stats_nor_scipy_integrate():
    # both are slow to import; the package imports them where they are called
    code = ("import sys, levyfield; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))")
    paths = [str(PACKAGE.parent), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_scipy():
    # scipy's version goes into the manifest, read where the manifest is written
    code = "import sys, levyfield.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    paths = [str(PACKAGE.parent), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_executor_logger_or_numpy_random():
    # the stable tail's helper threads are plain threading.Thread; an executor,
    # a logger or numpy.random (2 MB) would only add to every run's start-up
    code = ("import sys, levyfield; print(sorted(m for m in "
            "('concurrent.futures', 'logging', 'numpy.random') if m in sys.modules))")
    paths = [str(PACKAGE.parent), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def _modules_after(code: str, cwd) -> list[str]:
    """The scipy submodules in ``sys.modules`` after ``code`` in a fresh interpreter."""
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.startswith('scipy.')))"
    paths = [str(PACKAGE.parent), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=cwd, check=True)
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy_special(tmp_path):
    assert "scipy.special" not in _modules_after("import levyfield", tmp_path)


def test_a_stable_run_loads_no_scipy_special(tmp_path):
    # an explicit triple with a stable kernel and Sigma: Gamma is math.gamma, and
    # nothing on this route needs an array special function
    bump = {"type": "bump", "center": [0.0], "radius": 0.5}
    config = {
        "schema": 1, "seed": 7,
        "characteristics": {"dimension": 1, "gamma": {"density": 0.3},
                            "sigma": {"density": 1.0},
                            "nu": {"kernel": {"kind": "stable", "alpha": 1.5,
                                              "p": 0.5, "q": 0.5}}},
        "sampler": {"window": [[-1.0, 1.0]], "eps": 0.01},
        "tasks": [{"kind": "sample", "replicates": 1, "formats": ["jsonl"]},
                  {"kind": "sheet", "axes": [{"lo": -0.9, "hi": 0.9, "n": 16}]},
                  {"kind": "integrate", "function": bump},
                  {"kind": "verify-cf", "u": [0.5, 1.0, 2.0], "n": 1000,
                   "function": bump},
                  {"kind": "check-integrability", "function": bump}],
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    code = ("from levyfield import cli\n"
            "assert cli.main(['run', 'config.json', '--output', 'out']) == 0")
    loaded = _modules_after(code, tmp_path)
    assert (tmp_path / "out" / "manifest.json").is_file()
    assert "scipy.special" not in loaded


def test_a_stable_family_symbol_loads_no_scipy_integrate(tmp_path):
    # the truncated CF of both stable families is a series or a continued fraction,
    # at frequencies inside and beyond 1/|cutoff - ic|
    code = (
        "from levyfield import (Characteristics, JumpComponent, ProductBump, StableKernel,\n"
        "                       TemperedStableKernel)\n"
        "bump = ProductBump((0.0,), (0.5,))\n"
        "for kern in (TemperedStableKernel(1.5, 7.0), StableKernel(1.5, 0.8, 0.2)):\n"
        "    chars = Characteristics(1, nu=JumpComponent(kern))\n"
        "    for eps in (0.01, 0.5):\n"
        "        for u in (1.0, 20.0):\n"
        "            chars.levy_symbol(bump, u, eps=eps)")
    assert "scipy.integrate" not in _modules_after(code, tmp_path)


def test_the_dependence_checks_load_no_scipy_stats(tmp_path):
    # the calls of the benchmark's dependence workload: the stationarity test's
    # KS p-value is exact in verify, so only n > 10,000 would need scipy.stats
    code = (
        "from levyfield import Region, SamplerConfig, preset\n"
        "from levyfield.verify import (OnbCounterexampleSpec, independence_test,\n"
        "    onb_counterexample, paired_evaluations, stationary_increment_test)\n"
        "chars = preset('impulsive', rate=20.0)\n"
        "unit = Region.from_intervals([(0.0, 1.0)])\n"
        "halves = (Region.from_intervals([(0.0, 0.5)]), Region.from_intervals([(0.5, 1.0)]))\n"
        "cfg = SamplerConfig(seed=3, window=unit, horizon=1.0, eps=0.0,\n"
        "                    small_jump_mode='gaussian-substitute')\n"
        "independence_test(*paired_evaluations(chars, cfg, *halves, 600), permutations=20)\n"
        "onb_counterexample(OnbCounterexampleSpec(truncation=8, shared=True), 600, 5,\n"
        "                   permutations=20)\n"
        "rep = stationary_increment_test(chars, unit, [(0.4, 0.9)], 600, 11)\n"
        "assert rep.decision != 'indeterminate', rep")
    assert "scipy.stats" not in _modules_after(code, tmp_path)


def _module_level_imports(tree: ast.Module):
    """Import statements that run when the module is imported (function bodies excluded)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def scipy_submodule_imports(tree: ast.Module) -> list[str]:
    found = []
    for node in _module_level_imports(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.")]
        elif node.module == "scipy":
            found += [f"scipy.{a.name}" for a in node.names]
        elif node.module and node.module.startswith("scipy."):
            found.append(node.module)
    return found


@pytest.mark.parametrize("path", [PACKAGE / "__init__.py", *MODULES], ids=lambda p: p.name)
def test_no_module_level_scipy_submodule_import(path):
    # a bare ``import scipy`` loads no submodule; ``cli._versions`` imports it where it is called
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not scipy_submodule_imports(tree), f"{path.name}: move the import into its caller"


def test_the_scipy_scan_sees_module_level_imports_only():
    tree = ast.parse("import scipy\nimport scipy.special as sc\nfrom scipy import stats\n"
                     "if True:\n    from scipy.integrate import quad\n"
                     "def f():\n    from scipy.special import ndtr\n")
    assert sorted(scipy_submodule_imports(tree)) == [
        "scipy.integrate", "scipy.special", "scipy.stats"]
