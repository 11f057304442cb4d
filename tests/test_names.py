"""Every global name a module of the package reads is bound in it.

The check reads each module's symbol tables (``symtable``): a name read
at module level, or read in a function or class body without a binding
in between, must be assigned, imported, defined or declared global and
assigned somewhere in the module, or be a builtin.  A miss is a
``NameError`` waiting on the first call that reaches it.
"""

import builtins
import symtable
from pathlib import Path

import pytest

import qmatroids

PACKAGE = Path(qmatroids.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
# set by the import system in every module
MODULE_ATTRIBUTES = {"__builtins__", "__cached__", "__doc__", "__file__",
                     "__loader__", "__name__", "__package__", "__path__",
                     "__spec__"}


def _scopes(table):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def undefined_globals(source: str, filename: str):
    """The global names the module reads but never binds, sorted."""
    top = symtable.symtable(source, filename, "exec")
    bound, read = set(), set()
    for scope in _scopes(top):
        for sym in scope.get_symbols():
            module_level = scope is top or sym.is_declared_global()
            if module_level and (sym.is_assigned() or sym.is_imported()):
                bound.add(sym.get_name())
            if sym.is_referenced() and (scope is top or sym.is_global()):
                read.add(sym.get_name())
    return sorted(read - bound - set(dir(builtins)) - MODULE_ATTRIBUTES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_binds_every_global_it_reads(path):
    assert undefined_globals(path.read_text(), str(path)) == []


def test_check_reports_an_unbound_name():
    source = ("import os\n"
              "X = 1\n"
              "def f(a):\n"
              "    global Y\n"
              "    Y = a\n"
              "    return os.sep, X, Y, len(a), Missing\n"
              "class C:\n"
              "    z = Other\n")
    assert undefined_globals(source, "<test>") == ["Missing", "Other"]
