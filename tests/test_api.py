import ast
from pathlib import Path

import numpy as np
from scipy.optimize import _differentiable_functions, _slsqp_py

import tacempc
from tacempc.history import steady_history
from tacempc.model import min_weighted_output, solve_steady_state
from tacempc.ocp import ORIGINAL, ROTATED, OcpSpec, solve


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


def _defined(node):
    """The names a module-level statement defines: a function, a class, or
    each plain name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store):
                    yield leaf.id


def test_every_definition_is_read_by_program_code():
    # no helper or constant that only its own test reads: each module-level
    # function, class and assigned name of the library (dunders aside) is
    # read in the library or the benchmark, outside its own statement; tests
    # do not count
    paths = [*(_ROOT / "src" / "tacempc").glob("*.py"), *(_ROOT / "perfbench").rglob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths if not path.name.startswith("test_")}
    reads = [(name, path, line) for path, tree in trees.items() for name, line in _reads(tree)]

    def read_outside(defined, node, path):
        return any(name == defined
                   and not (where == path and node.lineno <= line <= node.end_lineno)
                   for name, where, line in reads)

    unread = {
        name
        for path, tree in trees.items() if path.parent.name == "tacempc"
        for node in tree.body
        for name in _defined(node)
        if not (name.startswith("__") and name.endswith("__"))
        and not read_outside(name, node, path)
    }
    assert unread == _UNREAD


def test_no_module_imports_another_modules_private_names():
    # an underscore name belongs to its module: a second reader moves it,
    # or makes it public, so each helper has one home
    imported = [
        (path.name, alias.name)
        for path in sorted((_ROOT / "src" / "tacempc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names if alias.name.startswith("_")
    ]
    assert imported == []


def test_finite_differences_serve_only_the_gradient_check():
    # validation._fd_jacobian is check 13's reference for the compiled gradients;
    # no rollout, box search or solve differentiates numerically, so program
    # code reads it nowhere else, its own module included
    paths = [*(_ROOT / "src" / "tacempc").glob("*.py"), *(_ROOT / "perfbench").rglob("*.py")]
    readers = set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(name == "_fd_jacobian" for name, _ in _reads(node)):
                readers.add((path.name, getattr(node, "name", None)))
    assert readers == {("validation.py", "check_gradients")}


def test_no_solve_reaches_numerical_differentiation(monkeypatch, builtin, pair):
    # scipy's minimize differentiates numerically, through approx_derivative,
    # every function it is given no Jacobian for; the steady-state search,
    # the box search and both solvers pass the model's exact ones
    def refuse(*args, **kwargs):
        raise AssertionError("scipy differentiated numerically")

    for module in (_slsqp_py, _differentiable_functions):
        monkeypatch.setattr(module, "approx_derivative", refuse)
    for (model, cert, ss), density in ((builtin, 201), (pair, 21)):
        found = solve_steady_state(model, grid_density=density)
        assert found.x_s.tolist() == ss.x_s.tolist() and found.u_s.tolist() == ss.u_s.tolist()
        min_weighted_output(model, cert)
    model, cert, ss = builtin
    H0 = steady_history(model.h(np.ones(1), np.ones(1)), 3)
    for objective in (ORIGINAL, ROTATED):
        spec = OcpSpec(model=model, cert=cert, ss=ss, N=10, T=3, x0=np.ones(1), H0=H0,
                       objective=objective)
        assert solve(spec).converged


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
