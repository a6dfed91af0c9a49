"""Count the package's source lines without docstrings, comments or
layout, and its public fields.

    python3 tools/ast_lines.py [PACKAGE_DIR]

For each ``*.py`` file of PACKAGE_DIR (default ``src/ghnpost`` beside this
script's parent), parse it and print two counts, then their totals:

- lines: drop the module, class and function docstrings (a body left
  empty becomes ``pass``) and count the lines of ``ast.unparse`` of what
  is left;
- fields: the public fields of the module's public classes, that is the
  annotated names of a class body (a dataclass's fields) and the
  ``self.x`` that its ``__init__`` sets, skipping ``_``-prefixed classes
  and names.

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


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src/ghnpost"
    lines = fields = 0
    print(" lines fields")
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        n, f = unparsed_lines(tree), public_fields(tree)
        lines, fields = lines + n, fields + f
        print(f"{n:6d} {f:6d}  {path.name}")
    print(f"{lines:6d} {fields:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
