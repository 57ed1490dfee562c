"""A ratchet on the package's settable values: defaults that a caller may
override but that no caller in the package needs to.

A change that adds a settable value edits ``LIMIT`` here and says why; a
change that removes some lowers it.  The count must equal ``LIMIT``, so a
removal that is not recorded fails too.
"""

import ast
import os

import ocrs

LIMIT = 44


def _dataclass_field_names(tree: ast.Module) -> set[str]:
    """The local names of ``dataclasses.field`` in a module."""
    return {alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "dataclasses"
            for alias in node.names if alias.name == "field"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = getattr(target, "id", getattr(target, "attr", None))
        if name == "dataclass":
            return True
    return False


def _settable_dataclass_field(value: ast.expr, field_names: set[str]) -> bool:
    """Whether a dataclass field with this default is an ``__init__``
    parameter with a default."""
    if not (isinstance(value, ast.Call)
            and getattr(value.func, "id", None) in field_names):
        return True
    keywords = {k.arg: k.value for k in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in keywords or "default_factory" in keywords


def settable_values(source: str) -> list[str]:
    """Every parameter with a default in any ``def``, and every dataclass
    field with a default that ``__init__`` takes, named by its owner."""
    tree = ast.parse(source)
    field_names = _dataclass_field_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            found += [f"{node.name}({a.arg})"
                      for a in positional[len(positional)
                                          - len(args.defaults):]]
            found += [f"{node.name}({a.arg})"
                      for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [f"{node.name}.{st.target.id}" for st in node.body
                      if isinstance(st, ast.AnnAssign)
                      and st.value is not None
                      and _settable_dataclass_field(st.value, field_names)]
    return found


def test_settable_values_do_not_grow():
    src = os.path.dirname(ocrs.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                found += [f"{name}: {v}" for v in settable_values(fh.read())]
    assert len(found) == LIMIT, "\n".join(found)


def test_settable_values_counts_defaults_and_dataclass_fields():
    source = '''
from dataclasses import dataclass, field as dataclass_field

def f(a, b=1, *, c, d=2):
    def g(e=3):
        pass

@dataclass
class C:
    x: int
    y: int = 0
    z: list = dataclass_field(default_factory=list)
    hidden: int = dataclass_field(default=0, init=False)
    shown: dict = dataclass_field(repr=False)

class NotADataclass:
    w: int = 0
'''
    assert sorted(settable_values(source)) == [
        "C.y", "C.z", "f(b)", "f(d)", "g(e)"]
