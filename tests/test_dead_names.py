"""Every function, class and method of the package is named somewhere else.

A top-level function or class, or a non-dunder method, of ``src/levyfield``
that no code in ``src``, ``tests`` and ``perfbench`` names has no caller and
should go.  Code names it as a variable, an attribute, an imported name or a
keyword, or as a word of a string that is not a docstring, so string hooks
(``perfbench/tracer.py`` patches by name) count; comments and docstrings do
not.  A name that only tests reach is listed in ``TEST_ONLY`` with the reason
it stays.

Spatial integrals go through their measure (``Density.integral``) and the
modular through ``modular_integrals``, so only those two call the region
quadrature (``QUADRATURE_CALLERS``).  Where f lives is read in one place,
``funcs.effective_domain``: no other module reads ``support_region``.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "levyfield"
# this file names deleted helpers on purpose, so it is no evidence of use
CORPUS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
                if p != Path(__file__).resolve())
DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module):
    """(qualified name, name) of top-level functions/classes and non-dunder methods."""
    for node in tree.body:
        if isinstance(node, DEF_NODES):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEF_NODES) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def code_names(text: str):
    """The names that the code of ``text`` uses, as listed in the module docstring."""
    tree = ast.parse(text)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *DEF_NODES)) and node.body
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield from re.findall(r"\w+", node.value)


def dead_names(package: list[str], corpus: list[str]) -> set[str]:
    """Qualified names defined in ``package`` sources that no code of ``corpus`` names."""
    used = {name for text in corpus for name in code_names(text)}
    return {qualified for text in package for qualified, name in definitions(ast.parse(text))
            if name not in used}


def package_sources() -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]


def test_every_package_name_has_a_use():
    corpus = [p.read_text(encoding="utf-8") for p in CORPUS]
    assert dead_names(package_sources(), corpus) == set()


def test_merged_atom_helpers_are_gone():
    defined = {q for text in package_sources() for q, _ in definitions(ast.parse(text))}
    gone = {"Characteristics.atoms_in", "Characteristics.atomless", "_atom_modular",
            "_signed_indicator", "_axis_indicator", "DriftComponent.measure",
            "DriftComponent.total_variation"}
    assert defined & gone == set()


def test_merged_set_up_helpers_are_gone():
    # the per-config decomposition (sampler.levy_ito_spec) holds these rates
    defined = {q for text in package_sources() for q, _ in definitions(ast.parse(text))}
    gone = {"_net_drift_rate", "FieldRealization._modulation_mass",
            "WhiteNoiseField._space_mass"}
    assert defined & gone == set()


def test_merged_integration_helpers_are_gone():
    # the R^d walk is quadrature.ladder_integral; the tempered kernel's modular
    # term is the generic JumpKernel.compact_moment; the image of the jump
    # measure is one quadrature per mass (integrate.Pushforward); every sheet
    # query is one lattice (sheets.SheetRealization.corner_grid)
    defined = {q for text in package_sources() for q, _ in definitions(ast.parse(text))}
    kernels = ("JumpKernel", "StableKernel", "CompoundPoissonKernel", "TemperedStableKernel",
               "TabulatedKernel", "DiscreteJumps", "NormalJumps", "UniformJumps")
    gone = {"_expanding_quad", "TemperedStableKernel.compact_moment", "PushforwardMixture",
            "PushforwardTable", *(f"{k}.scale_image" for k in kernels),
            "_fast_grid", "_corner_box"}
    assert defined & gone == set()


def test_the_white_noise_layout_helpers_are_gone():
    # a WhiteNoiseField stack holds its plane layout once; its methods may
    # keep these names, the module may not
    defined = {q for text in package_sources() for q, _ in definitions(ast.parse(text))}
    gone = {"_one_layout", "_stack_values", "_mesh_cells", "_refine", "_ensure_planes"}
    assert defined & gone == set()


def test_the_tensor_node_grid_is_gone():
    # the quadrature builds its nodes per axis (quadrature._tensor_sums)
    defined = {q for text in package_sources() for q, _ in definitions(ast.parse(text))}
    assert "_grid" not in defined
    assert "_grid_cache" not in (PACKAGE / "quadrature.py").read_text(encoding="utf-8")


def test_the_fenwick_scan_is_gone():
    # distance covariance reads two blocked dominance sums (verify._dominance_sums)
    defined = {q for text in package_sources() for q, _ in definitions(ast.parse(text))}
    assert defined & {"_fenwick_paths", "_ordered_cross_sums"} == set()


def test_the_test_only_helpers_are_gone():
    # the noise is described by its symbol (Characteristics.levy_symbol); the
    # modular computes its own drift sup (JumpKernel.drift_sup)
    defined = {q for text in package_sources() for q, _ in definitions(ast.parse(text))}
    gone = {"Characteristics.laplace_exponent", "JumpKernel.laplace_integrand",
            "StableKernel.laplace_integrand", "CompoundPoissonKernel.laplace_integrand",
            "JumpSizeDistribution.mgf_neg", "DiscreteJumps.mgf_neg", "NormalJumps.mgf_neg",
            "UniformJumps.mgf_neg", "drift_correction_sup", "SimpleFunction.scaled"}
    assert defined & gone == set()


def test_the_clipped_truncation_is_gone():
    # the modular's G(v) is v * indicator_moment_diff(v) for every kernel
    # (JumpKernel.truncation_drift): the symbol's truncation, not tau(y) = y ^ sgn(y)
    defined = {q for text in package_sources() for q, _ in definitions(ast.parse(text))}
    gone = {"JumpKernel._truncation_drift", "StableKernel._truncation_drift",
            "CompoundPoissonKernel._truncation_drift"}
    assert defined & gone == set()


# package names that only tests call, each kept for a reason
TEST_ONLY = {
    "box_increment": "paper-facing: a sheet's increment over a box",
    "integrate_simple": "paper-facing: the pathwise integral of a simple function",
    "phi_m": "paper-facing: the modular Phi(u, x) against the control measure",
    "sample_stable_marginal_oracle": "reference oracle independent of the path sampler",
    "read_frames": "artifact reader of the binary jump table",
    "read_jsonl": "artifact reader of the JSON-lines outputs",
    "interval": "public constructor of a one-dimensional box",
}


def test_only_the_listed_names_are_reached_by_tests_alone():
    # __init__.py re-exports every public name, so it is no evidence of use
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    perfbench = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert dead_names(package, package + perfbench) == set(TEST_ONLY)


def test_the_scan_sees_a_dead_name():
    package = ("def used():\n    pass\n"
               "def dead():\n    pass\n"
               "class K:\n"
               "    def __init__(self):\n        pass\n"
               "    def hooked(self):\n        pass\n"
               "    def unused(self):\n        pass\n"
               "class Unused:\n    pass\n")
    other = "used()\nK()\nHOOKS = ['hooked']\ndef dead():\n    pass\n"
    assert dead_names([package], [package, other]) == {"dead", "K.unused", "Unused"}


def test_the_scan_reads_code_not_prose():
    package = ("class K:\n"
               "    \"\"\"Names radius() in its own docstring.\"\"\"\n"
               "    def radius(self):\n        pass\n"
               "    def attr(self):\n        pass\n"
               "    def keyed(self):\n        pass\n"
               "    def imported(self):\n        pass\n")
    other = ("\"\"\"K.radius, named in a module docstring.\"\"\"\n"
             "from pkg import imported\n"
             "def f(k):\n"
             "    \"\"\"k.radius(), named in a function docstring.\"\"\"\n"
             "    # k.radius(), named in a comment\n"
             "    return k.attr, K(keyed=1)\n")
    assert dead_names([package], [package, other]) == {"K.radius"}


# enclosing function -> calls of the region/box quadrature outside quadrature.py
QUADRATURE_CALLERS = {"Density.integral": 1, "modular_integrals": 1}
QUADRATURE_ENTRIES = ("region_integral", "region_integrals", "box_integral")


def quadrature_calls(text: str) -> Counter:
    """Calls of a ``QUADRATURE_ENTRIES`` name per top-level function or method."""
    counts = Counter()
    for node in ast.parse(text).body:
        if isinstance(node, ast.ClassDef):
            units = [(f"{node.name}.{item.name}", item) for item in node.body
                     if isinstance(item, DEF_NODES)]
        else:
            units = [(node.name, node)] if isinstance(node, DEF_NODES) else []
        for name, unit in units:
            for call in ast.walk(unit):
                if isinstance(call, ast.Call) and (
                        getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                ) in QUADRATURE_ENTRIES:
                    counts[name] += 1
    return counts


def test_spatial_integrals_go_through_their_measure():
    counts = sum((quadrature_calls(p.read_text(encoding="utf-8"))
                  for p in sorted(PACKAGE.glob("*.py")) if p.name != "quadrature.py"),
                 Counter())
    assert counts == QUADRATURE_CALLERS


def test_the_scan_counts_quadrature_calls():
    source = ("from .quadrature import box_integral, region_integral, region_integrals\n"
              "from . import quadrature\n"
              "def direct(f, r):\n    return region_integral(f, r)[0] + box_integral(f, r)[0]\n"
              "def batch(f, rs):\n    return region_integrals(f, rs)\n"
              "class M:\n"
              "    def integral(self, r):\n"
              "        def inner(p):\n            return p\n"
              "        return quadrature.region_integral(inner, r)\n"
              "    def integrals(self, rs):\n        return quadrature.region_integrals(len, rs)\n"
              "    def other(self):\n        return 0.0\n"
              "x = region_integral(len, None)\n")
    assert quadrature_calls(source) == Counter({"direct": 2, "batch": 1, "M.integral": 1,
                                                "M.integrals": 1})


def support_readers(text: str) -> list[int]:
    """Lines that read an attribute named ``support_region`` (or fetch it by name)."""
    return sorted({node.lineno for node in ast.walk(ast.parse(text))
                   if (isinstance(node, ast.Attribute) and node.attr == "support_region")
                   or (isinstance(node, ast.Constant) and node.value == "support_region")})


def test_only_funcs_reads_the_support():
    readers = {p.name: support_readers(p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "funcs.py"}
    assert {name: lines for name, lines in readers.items() if lines} == {}


def test_the_scan_sees_a_support_reader():
    source = ("def a(f):\n    return f.support_region\n"
              "def b(f):\n    return getattr(f, 'support_region', None)\n"
              "def c(f):\n    return effective_domain(f)\n")
    assert support_readers(source) == [2, 4]


def private_gaussian_names(text: str) -> list[str]:
    """Underscore names taken from the ``gaussian`` module, by import or attribute."""
    names = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "gaussian":
            names += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "gaussian" and node.attr.startswith("_")):
            names.append(node.attr)
    return sorted(names)


def test_the_white_noise_layout_stays_in_its_module():
    names = {p.name: private_gaussian_names(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "gaussian.py"}
    assert {name: found for name, found in names.items() if found} == {}


def test_the_scan_sees_a_private_gaussian_import():
    source = ("from .gaussian import WhiteNoiseField, _refine\n"
              "from levyfield.gaussian import _span\n"
              "from .regions import _private\n"
              "from . import gaussian\n"
              "def f(w):\n    return gaussian._mesh_cells(w), gaussian.root_masses, w._rngs\n")
    assert private_gaussian_names(source) == ["_mesh_cells", "_refine", "_span"]


def traced_names() -> tuple[list, list]:
    """``FUNCTIONS`` and ``METHODS`` of ``perfbench/tracer.py``, read from its source."""
    tables = {}
    for node in ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTIONS", "METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables["FUNCTIONS"], tables["METHODS"]


def test_every_traced_name_resolves():
    # looked up as ``Tracer.install`` does: a module attribute, or a method in
    # the class's own ``__dict__``
    functions, methods = traced_names()
    assert functions and methods
    missing = [f"{mod}.{attr}" for mod, attr, _ in functions
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr, _ in methods
                if attr not in vars(getattr(importlib.import_module(mod), cls, object))]
    assert missing == []
