"""The kernel maths stays array-valued: no per-element loops over quadrature.
Kernel-specific code stays behind the kernel interface: no module, ``kernels``
included, branches on a concrete kernel or jump-law class."""

import ast
import inspect
from pathlib import Path

import levyfield.kernels
from levyfield.kernels import JumpKernel, JumpSizeDistribution

SOURCE = Path(levyfield.kernels.__file__)
CONCRETE = {name for name, cls in inspect.getmembers(levyfield.kernels, inspect.isclass)
            if issubclass(cls, JumpKernel) and cls not in (JumpKernel, JumpSizeDistribution)}
QUAD = {"quad", "_quad", "_quad_checked", "quad_vec"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
# Every kernel integral is array-valued; the last per-frequency quad, the
# (tempered) stable small-jump CF beyond 1/|theta - ic|, is a continued fraction now.
ALLOWED = set()


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


def concrete_isinstance(tree: ast.Module) -> list[int]:
    """Lines calling ``isinstance`` against a concrete kernel or jump-law class."""
    lines = []
    for call in ast.walk(tree):
        if (isinstance(call, ast.Call) and called_name(call) == "isinstance"
                and len(call.args) == 2):
            spec = call.args[1]
            names = spec.elts if isinstance(spec, ast.Tuple) else [spec]
            if any(getattr(n, "attr", getattr(n, "id", None)) in CONCRETE for n in names):
                lines.append(call.lineno)
    return lines


def test_no_module_branches_on_a_concrete_kernel():
    assert {"StableKernel", "TabulatedKernel", "DiscreteJumps"} <= CONCRETE
    found = {}
    for path in sorted(SOURCE.parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if lines := concrete_isinstance(tree):
            found[path.name] = lines
    # a tabulated kernel equals only another of its class, compared array by array
    eq = dict(functions(ast.parse(SOURCE.read_text(encoding="utf-8"))))["TabulatedKernel.__eq__"]
    assert found == {SOURCE.name: concrete_isinstance(eq)}


def test_the_scan_sees_a_concrete_isinstance():
    tree = ast.parse(
        "if isinstance(k, StableKernel):\n"
        "    pass\n"
        "ok = isinstance(j, JumpSizeDistribution)\n"
        "bad = isinstance(j, (int, kernels.DiscreteJumps))\n")
    assert concrete_isinstance(tree) == [1, 4]
