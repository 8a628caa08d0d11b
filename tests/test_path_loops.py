"""Paths are drawn in batches: outside the sampler no function calls
``sample_field`` once per path inside a loop or a comprehension."""

import ast
from pathlib import Path

import levyfield

PACKAGE = Path(levyfield.__file__).resolve().parent
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def per_path_loops(tree: ast.Module) -> set[str]:
    """Functions (nested ones too) that call ``sample_field`` inside a loop."""
    return {fn.name for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for loop in ast.walk(fn) if isinstance(loop, LOOPS)
            for call in ast.walk(loop)
            if isinstance(call, ast.Call) and called_name(call) == "sample_field"}


def test_no_module_samples_paths_one_at_a_time():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "sampler.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            if names := per_path_loops(tree):
                found[path.name] = names
    assert found == {}


def test_the_scan_sees_a_per_path_loop():
    tree = ast.parse(
        "def paired(chars, cfg, n):\n"
        "    for k in range(n):\n"
        "        real = sample_field(chars, cfg, replicate=k)\n"
        "def route(chars, cfg, n):\n"
        "    return list(sampler.sample_field(chars, cfg, k) for k in range(n))\n"
        "def outer(chars, cfg):\n"
        "    def inner(n):\n"
        "        while n:\n"
        "            n = sample_field(chars, cfg, n).replicate - 1\n"
        "    return inner\n"
        "def batched(chars, cfg, n):\n"
        "    one = sample_field(chars, cfg, 0)\n"
        "    return [sample_fields(chars, cfg, r) for r in blocks(n)], one\n")
    assert per_path_loops(tree) == {"paired", "route", "outer", "inner"}
