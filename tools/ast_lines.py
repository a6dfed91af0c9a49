"""Count the package's source lines without docstrings, comments or layout.

    python3 tools/ast_lines.py [PACKAGE_DIR]

For each ``*.py`` file of PACKAGE_DIR (default ``src/ghnpost`` beside this
script's parent), parse it, drop the module, class and function
docstrings (a body left empty becomes ``pass``), and count the lines of
``ast.unparse`` of what is left.  Prints one line per module and the
total, the size measure that ROADMAP aim 2 tracks.
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


def unparsed_lines(path: Path) -> int:
    """Lines of ``ast.unparse`` of ``path`` without its docstrings."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    _strip_docstrings(tree)
    return len(ast.unparse(tree).splitlines())


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src/ghnpost"
    total = 0
    for path in sorted(package.glob("*.py")):
        n = unparsed_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
