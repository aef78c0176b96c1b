import ast
from pathlib import Path

import tacempc


def test_public_names_resolve():
    missing = [name for name in tacempc.__all__ if not hasattr(tacempc, name)]
    assert missing == []


def test_public_names_unique():
    assert len(set(tacempc.__all__)) == len(tacempc.__all__)


_ROOT = Path(__file__).resolve().parents[1]
# Definitions no program code reads yet, each with its reason.
_UNREAD = {
    # the closed-loop performance bound r(K); ROADMAP item 5's check 14 will read it
    "performance_residual",
}


def _reads(tree):
    """(name, line) of every name loaded, attribute taken and string constant
    (``__all__`` and ``getattr``-style references) in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_definition_is_read_by_program_code():
    # no helper that only its own test reads: each module-level function and
    # class of the library is read in the library or the benchmark, outside
    # its own body; tests do not count
    paths = [*(_ROOT / "src" / "tacempc").glob("*.py"), *(_ROOT / "perfbench").rglob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths if not path.name.startswith("test_")}
    reads = [(name, path, line) for path, tree in trees.items() for name, line in _reads(tree)]

    def read_outside(node, path):
        return any(name == node.name
                   and not (where == path and node.lineno <= line <= node.end_lineno)
                   for name, where, line in reads)

    unread = {
        node.name
        for path, tree in trees.items() if path.parent.name == "tacempc"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not read_outside(node, path)
    }
    assert unread == _UNREAD


def test_finite_differences_serve_only_the_gradient_check():
    # model._fd_jacobian is check 13's reference for the compiled gradients;
    # no rollout, box search or solve differentiates numerically, so program
    # code reads it nowhere else, its own module included
    paths = [*(_ROOT / "src" / "tacempc").glob("*.py"), *(_ROOT / "perfbench").rglob("*.py")]
    readers = set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(name == "_fd_jacobian" for name, _ in _reads(node)):
                readers.add((path.name, getattr(node, "name", None)))
    assert readers == {("validation.py", "check_gradients")}


def test_only_assess_builds_a_solution():
    # ocp._assess builds the OcpSolution both solvers return and solve
    # only replaces its counters, so a new solver or retry cannot grow a
    # second way to assemble a solution
    paths = [*(_ROOT / "src" / "tacempc").glob("*.py"), *(_ROOT / "perfbench").rglob("*.py")]
    builders = set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and "OcpSolution" in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None)
                ):
                    builders.add((path.name, getattr(node, "name", None)))
    assert builders == {("ocp.py", "_assess")}


def _private_scipy_modules(tree):
    """Every module path imported from scipy with a component starting
    with ``_``: ``from scipy.optimize import _lbfgsb`` counts as
    ``scipy.optimize._lbfgsb``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            paths = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        for path in paths:
            parts = path.split(".")
            if parts[0] == "scipy" and any(part.startswith("_") for part in parts):
                # the private prefix: scipy.optimize._optimize.MemoizeJac is
                # an import of scipy.optimize._optimize
                end = next(i for i, part in enumerate(parts) if part.startswith("_"))
                yield ".".join(parts[: end + 1])


def test_only_the_pinned_private_scipy_module_is_imported():
    # tests/test_lbfgsb.py pins the calling convention of scipy's private
    # _lbfgsb kernel; any other private scipy module would go unpinned
    found = {
        module
        for path in (_ROOT / "src" / "tacempc").glob("*.py")
        for module in _private_scipy_modules(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {"scipy.optimize._lbfgsb"}
