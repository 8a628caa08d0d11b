"""The kernel maths stays array-valued: no per-element loops over quadrature."""

import ast
from pathlib import Path

import levyfield.kernels

SOURCE = Path(levyfield.kernels.__file__)
QUAD = {"quad", "_quad", "_quad_checked", "quad_vec"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
# Characteristic-function integrands without a closed form here still
# integrate frequency by frequency (ROADMAP item 1).
ALLOWED = {"StableKernel._small_cf_part", "TemperedStableKernel.cf_integrand"}


def functions(tree: ast.Module):
    """(qualified name, node) of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def quad_in_loops(tree: ast.Module) -> set[str]:
    """Functions with a quadrature call inside a loop or comprehension."""
    return {name for name, fn in functions(tree)
            for loop in ast.walk(fn) if isinstance(loop, LOOPS)
            for call in ast.walk(loop)
            if isinstance(call, ast.Call) and called_name(call) in QUAD}


def ndenumerate_uses(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "ndenumerate")
            or (isinstance(node, ast.Name) and node.id == "ndenumerate")]


def test_kernels_have_no_per_element_quadrature():
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"), filename=str(SOURCE))
    assert ndenumerate_uses(tree) == []
    # an allowed loop that is gone should leave the list too
    assert quad_in_loops(tree) == ALLOWED


def test_the_scan_sees_a_per_element_quad():
    tree = ast.parse(
        "class K:\n"
        "    def f(self, c):\n"
        "        return [_sint.quad(g, 0, x)[0] for x in c]\n"
        "    def g(self, c):\n"
        "        for i, x in np.ndenumerate(c):\n"
        "            while x:\n"
        "                x = quad(h, 0, x)\n"
        "    def h(self, c):\n"
        "        return quad_vec(g, 0, 1)\n"
        "def top(c):\n"
        "    for x in c:\n"
        "        _quad(g, 0, x)\n")
    assert quad_in_loops(tree) == {"K.f", "K.g", "top"}
    assert ndenumerate_uses(tree) == [5]
