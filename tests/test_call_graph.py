"""The modules that walk nested input, expressions and JSON configs, do it
with explicit stacks: no function in them reaches itself through calls,
directly or through other functions, so no input depth or caller depth
can exhaust Python's recursion limit.  Methods that dataclasses generate
are not in the source, so they are read off the classes: an expression
node has no ``==``, ``hash`` or ``repr`` of its own, which would recurse
once per level, and a record that holds arrays no ``==`` or ``hash``,
which would raise."""

import ast
import inspect

import pytest

from tacempc import config, exprlang
from tacempc.closedloop import ClosedLoopTrace
from tacempc.diagnostics import LyapunovTrace
from tacempc.history import HistoryState
from tacempc.ocp import OcpSolution, OcpSpec


def _call_graph(source):
    """Each function defined in source -> the names it calls of functions
    defined there.  A call ``obj.name()`` counts as a call of every function
    named ``name``, except through ``super()``, and a nested function's
    calls count for its encloser."""
    defs = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)]
    graph = {d.name: set() for d in defs}
    for d in defs:
        for node in ast.walk(d):
            if not isinstance(node, ast.Call):
                continue
            owner = getattr(node.func, "value", None)
            if isinstance(owner, ast.Call) and getattr(owner.func, "id", None) == "super":
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee in graph:
                graph[d.name].add(callee)
    return graph


def _recursive(graph):
    """The functions of graph that reach themselves."""
    found = set()
    for start in graph:
        stack, seen = list(graph[start]), set()
        while stack:
            name = stack.pop()
            if name == start:
                found.add(start)
                break
            if name not in seen:
                seen.add(name)
                stack.extend(graph[name])
    return found


@pytest.mark.parametrize("module", [exprlang, config], ids=lambda m: m.__name__)
def test_no_function_recurses(module):
    assert _recursive(_call_graph(inspect.getsource(module))) == set()


def test_self_and_mutual_recursion_are_found():
    source = """
def walk(e):
    return any(walk(c) for c in e)

def expr(toks):
    return term(toks)

def term(toks):
    return toks.atom()

class Tokens:
    def __init__(self):
        super().__init__()

    def atom(self):
        return expr(self)

def leaf(toks):
    return term(toks) + walk(toks)
"""
    assert _recursive(_call_graph(source)) == {"walk", "expr", "term", "atom"}


_NODES = tuple(exprlang.Expr.__subclasses__())
_ARRAY_RECORDS = (HistoryState, OcpSpec, OcpSolution, ClosedLoopTrace, LyapunovTrace,
                  config.RunConfig)


@pytest.mark.parametrize("cls", _NODES + _ARRAY_RECORDS, ids=lambda cls: cls.__name__)
def test_nodes_and_array_records_compare_by_identity(cls):
    own = ("__eq__", "__hash__", "__repr__") if cls in _NODES else ("__eq__", "__hash__")
    assert [name for name in own if getattr(cls, name) is not getattr(object, name)] == []
