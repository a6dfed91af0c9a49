"""Count the package's source lines without docstrings, comments or
layout, its public fields, its options and its public classes.

    python3 tools/ast_lines.py [PACKAGE_DIR]

For each ``*.py`` file of PACKAGE_DIR (default ``src/ghnpost`` beside this
script's parent), parse it and print four counts, then their totals:

- lines: drop the module, class and function docstrings (a body left
  empty becomes ``pass``) and count the lines of ``ast.unparse`` of what
  is left;
- fields: the public fields of the module's public classes, that is the
  annotated names of a class body (a dataclass's fields) and the
  ``self.x`` that its ``__init__`` sets, skipping ``_``-prefixed classes
  and names;
- options: the parameters with a default of the module's public
  functions and of its public classes' public methods (``__init__``
  included), plus the command-line flags, the ``add_argument`` calls whose
  first name starts with ``--``;
- classes: the module's public classes, those of its top level whose
  name has no ``_`` prefix (an exception class, which has no fields,
  counts here).

These are the size measures that ROADMAP aim 2 tracks.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _strip_docstrings(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            node.body = node.body[1:] or [ast.Pass()]


def unparsed_lines(tree: ast.Module) -> int:
    """Lines of ``ast.unparse`` of ``tree`` without its docstrings."""
    _strip_docstrings(tree)
    return len(ast.unparse(tree).splitlines())


def public_fields(tree: ast.Module) -> int:
    """Public fields of the public classes of ``tree``."""
    total = 0
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        names = set()
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                names.update(
                    node.attr for node in ast.walk(stmt)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                )
        total += sum(not name.startswith("_") for name in names)
    return total


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def options(tree: ast.Module) -> int:
    """Parameters with a default of the public functions and public
    classes' public methods of ``tree``, plus its ``--`` flags."""
    functions = [node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            functions += [node for node in cls.body
                          if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    flags = sum(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument" and bool(node.args)
        and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
        and node.args[0].value.startswith("--")
        for node in ast.walk(tree)
    )
    return sum(_defaults(fn) for fn in functions if _public(fn.name)) + flags


def public_classes(tree: ast.Module) -> int:
    """Public classes of the top level of ``tree``."""
    return sum(isinstance(node, ast.ClassDef) and not node.name.startswith("_")
               for node in tree.body)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src/ghnpost"
    totals = [0, 0, 0, 0]
    print(" lines fields options classes")
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        counts = (unparsed_lines(tree), public_fields(tree), options(tree),
                  public_classes(tree))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{counts[0]:6d} {counts[1]:6d} {counts[2]:7d} {counts[3]:7d}  {path.name}")
    print(f"{totals[0]:6d} {totals[1]:6d} {totals[2]:7d} {totals[3]:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
