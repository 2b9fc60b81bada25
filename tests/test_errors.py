"""The error hierarchy holds no class that the package never raises."""

from __future__ import annotations

import ast
from pathlib import Path

import sdcsim

SRC = Path(sdcsim.__file__).resolve().parent


def test_every_error_class_is_constructed_outside_its_module():
    """Each class in `errors.py` is called somewhere else in the package, by name or as an
    attribute: a class that only ever appears in an `except` or as a base marks a rule that
    a later one replaced."""
    defined = [node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for path in SRC.glob("*.py") if path.name != "errors.py"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert [name for name in defined if name not in called] == []
