"""Every function and method of the package has a caller in the package or in
the benchmark: a helper only the tests call is test code living in src/."""

import ast
from pathlib import Path

import lieop

SRC = Path(lieop.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"
# `main` is a pyproject script and `write_bundle` is documented in the README
ALLOWED = {"main", "write_bundle"}


class _Names(ast.NodeVisitor):
    """The functions defined in a module and the names it refers to outside the
    body of a function of the same name.  An imported name counts, so an export
    from the package is a reference, and so does a string constant, since the
    benchmark patches functions by name."""

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

    def visit_alias(self, node):
        self._use(node.asname or node.name)

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


# (module file, function): verdict kernels that read sparse rows only
SPARSE_KERNELS = (("onstruct.py", "nijenhuis_structure_defect"),
                  ("twilled.py", "cocycle_residual"), ("ooper.py", "graph_check"),
                  ("liecore.py", "morphism_defect"), ("ooper.py", "gauge_iso_check"),
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
