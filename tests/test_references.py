"""Every function and method of the package has a caller in the package or in
the benchmark: a helper only the tests call is test code living in src/.  An
import is not a caller, so an export from the package alone does not count;
the README's library entry points are the only functions allowed no caller."""

import ast
import importlib
import inspect
from pathlib import Path

import lieop

SRC = Path(lieop.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"
README = SRC.parents[1] / "README.md"
API_HEADING = "## Library API beyond the command line\n"


def readme_api():
    """The dotted names of the bullets under the README's API heading."""
    section = README.read_text(encoding="utf-8").split(API_HEADING, 1)[1].split("\n## ", 1)[0]
    return [line.split("`")[1] for line in section.splitlines() if line.startswith("- `")]


# `main` is a pyproject script; the rest are the README's library entry points
ALLOWED = {"main"} | {name.rpartition(".")[2] for name in readme_api()}


class _Names(ast.NodeVisitor):
    """The functions defined in a module and the names it refers to outside the
    body of a function of the same name.  A string constant counts, since the
    benchmark patches functions by name; an imported name does not."""

    def __init__(self):
        self.defined, self.used, self.inside = [], set(), []

    def _function(self, node):
        self.defined.append((node.name, node.lineno))
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def _use(self, name):
        if name not in self.inside:
            self.used.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._use(node.value)


def _scan(paths):
    defined, used = [], set()
    for path in paths:
        names = _Names()
        names.visit(ast.parse(path.read_text(encoding="utf-8")))
        defined += [(f"{path.name}:{line}", name) for name, line in names.defined]
        used |= names.used
    return defined, used


def test_every_function_in_src_has_a_caller_outside_the_tests():
    src = sorted(SRC.glob("*.py"))
    defined, used = _scan(src)
    _, bench_used = _scan(sorted(PERFBENCH.glob("*.py")))
    assert len(defined) > 100
    unused = [f"{where} {name}" for where, name in defined
              if not (name.startswith("__") and name.endswith("__")) and name not in ALLOWED
              and name not in used | bench_used]
    assert unused == []


def test_the_readme_api_names_functions_the_package_exports():
    """Each README API entry is a function defined in src/ and reached from its
    dotted name, `lieop.<name>` or `lieop.<module>.<name>`, so the allowance
    above names only real entry points."""
    defined = {name for _, name in _scan(sorted(SRC.glob("*.py")))[0]}
    api = readme_api()
    assert api
    for dotted in api:
        module, _, name = dotted.rpartition(".")
        assert module.split(".")[0] == "lieop" and name in defined, dotted
        func = getattr(importlib.import_module(module), name)
        assert Path(inspect.getsourcefile(func)).parent == SRC, dotted


# (module file, function): verdict kernels that read sparse rows only
SPARSE_KERNELS = (("onstruct.py", "nijenhuis_structure_defect"),
                  ("twilled.py", "cocycle_residual"), ("ooper.py", "graph_check"),
                  ("liecore.py", "morphism_defect"),
                  ("onstruct.py", "hierarchy"), ("twilled.py", "twilled_new"),
                  ("liecore.py", "restrict_to_subalgebra"),
                  ("cohomology.py", "ce_differential"), ("cohomology.py", "_walk"))
DENSE_BASIS_NAMES = {"_unit", "act", "apply", "bracket_vec", "col", "coords"}


def _names_in(filename, name):
    """The names and attributes that the function `name` of `filename` reads."""
    tree = ast.parse((SRC / filename).read_text(encoding="utf-8"))
    (func,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(func) if isinstance(node, (ast.Name, ast.Attribute))}


def test_sparse_kernels_name_no_dense_basis_vector_helper():
    """These kernels read sparse rows through `_add_rows`: none of them names a
    helper that builds or applies a dense basis vector."""
    found = {name: sorted(_names_in(filename, name) & DENSE_BASIS_NAMES)
             for filename, name in SPARSE_KERNELS}
    assert found == {name: [] for _, name in SPARSE_KERNELS}


def test_the_differential_walk_enumerates_no_subsets():
    """d f is walked from f's values: neither `ce_differential` nor the walk
    enumerates the (n+1)-subsets of the basis."""
    for name in ("ce_differential", "_walk"):
        assert "combinations" not in _names_in("cohomology.py", name), name


# the functions that may call a private constructor
BY_THEOREM_CALLERS = {"adjoint", "dual_rep", "trivial_rep", "twilled_new", "swap"}


def test_only_the_theorem_carriers_call_the_private_constructor():
    """No loader and no validating constructor can reach `_by_theorem`: its
    callers are exactly the five carriers a theorem makes valid."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                if any(isinstance(node, ast.Attribute) and node.attr == "_by_theorem"
                       for node in ast.walk(func)):
                    callers.add(getattr(func, "name", "<lambda>"))
    assert callers == BY_THEOREM_CALLERS


# the input checks that decide membership through the dense route
CLOSURE_CHECKS = ("is_subalgebra", "is_ideal", "_first_outside")


def test_input_checks_read_no_builder():
    """The closure checks bracket and act through `bracket_vec` and `act`, never
    through a builder: were they to read `transport`, the "subalgebra bracket"
    mutation of `transport` in test_theorem_sites.py would be refused as a bad
    input (exit 2) instead of exiting 3 as the library bug it is."""
    found = {name: sorted(_names_in("liecore.py", name) & {"transport", "morphism_defect"})
             for name in CLOSURE_CHECKS}
    assert found == {name: [] for name in CLOSURE_CHECKS}


# the walks of the O-identity, which build the entries of P a pair reads
O_IDENTITY_WALKS = ("o_defect", "o_residual", "mixed_residual", "_o_identity")


def test_the_o_identity_walks_build_no_product_table():
    """The O-identity reads the two entries of P of each pair, built for the pair
    or taken from a table a caller keeps: no walk names `o_product`, so a
    rejection cannot go back to building all m^2 entries before its first pair."""
    found = {name: "o_product" in _names_in("ooper.py", name) for name in O_IDENTITY_WALKS}
    assert found == {name: False for name in O_IDENTITY_WALKS}
