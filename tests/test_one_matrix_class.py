"""``linalg.Matrix`` is the one matrix class.

A matrix of scalars is a matrix of forms of degree 0, so the package has
one matrix class, whose ``degree`` says all that a kind would say.  No
subclass of ``Matrix`` exists, no module names the two kinds it replaced,
and no module switches on the type of a matrix with ``isinstance``.  And
the package builds no matrix by block algebra: every matrix made of blocks
is written by index, so no stacking helper is left to call."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import apolar
from apolar import linalg, resolution

SOURCES = sorted(Path(apolar.__file__).parent.glob("*.py"))
FORBIDDEN = re.compile(r"\b(Field|Poly)Matrix\b")


def test_matrix_is_the_only_matrix_class():
    defined = [obj for obj in vars(linalg).values()
               if inspect.isclass(obj) and issubclass(obj, linalg.Matrix)]
    assert defined == [linalg.Matrix]
    assert linalg.Matrix.__subclasses__() == []


def _names_matrix(node: ast.AST) -> bool:
    """Whether the node names a class called ``Matrix`` or ``...Matrix``."""
    return any(isinstance(n, ast.Name) and n.id.endswith("Matrix")
               or isinstance(n, ast.Attribute) and n.attr.endswith("Matrix")
               for n in ast.walk(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_switches_on_no_matrix_kind(path):
    text = path.read_text(encoding="utf-8")
    hits = [f"{i}: {line.strip()}" for i, line in enumerate(text.splitlines(), 1)
            if FORBIDDEN.search(line)]
    hits += [f"{call.lineno}: isinstance(..., Matrix)"
             for call in ast.walk(ast.parse(text))
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
             and call.func.id == "isinstance" and len(call.args) == 2
             and _names_matrix(call.args[1])]
    assert hits == [], f"{path.name} names a matrix kind:\n" + "\n".join(hits)


def test_no_block_algebra_is_left():
    for module in (apolar, linalg):
        for name in ("block", "hstack", "vstack"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in ("zeros", "identity", "deleted", "take_rows", "from_strings"):
        assert not hasattr(linalg.Matrix, name), f"Matrix.{name}"
    assert not hasattr(resolution, "theta_matrices")
    assert not hasattr(apolar, "theta_matrices")
