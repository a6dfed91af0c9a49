"""tools/ast_lines.py: the line, public-field and option counts of ROADMAP aim 2."""

import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "ast_lines.py"

_CLASSES = '''"""Two public classes with three public fields, and private names."""
from dataclasses import dataclass


@dataclass
class Pair:
    """A docstring is no field."""

    left: int
    right: int = 0
    _cache: int = 0


class Holder:
    def __init__(self):
        self.value, self._hidden = 1, 2
        self.value = 3


class _Private:
    name: str

    def __init__(self):
        self.other = 1
'''

_OPTIONS = '''"""Five options: two defaults of a public function, one keyword-only
default of a public method, __init__'s default and one --flag."""
import argparse


def public(a, b=1, *, c=2, d):
    def nested(x=0):
        return x


def _private(a=1):
    pass


class Public:
    def __init__(self, size=3):
        pass

    def method(self, *, keyword=None):
        pass

    def _helper(self, hidden=1):
        pass


class _Hidden:
    def method(self, hidden=1):
        pass


def build():
    parser = argparse.ArgumentParser()
    parser.add_argument("path")
    parser.add_argument("--flag", "-f", default=1)
    parser.add_argument("-x")
    return parser
'''


def _counts(package: Path) -> dict[str, tuple[int, int, int]]:
    out = subprocess.run([sys.executable, str(_SCRIPT), str(package)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[0].split() == ["lines", "fields", "options"]
    rows = [line.split() for line in out.splitlines()[1:]]
    return {name: (int(lines), int(fields), int(opts)) for lines, fields, opts, name in rows}


def test_counts_lines_without_docstrings_and_public_fields(tmp_path):
    (tmp_path / "a.py").write_text('def documented():\n    """Only a docstring."""\n')
    (tmp_path / "b.py").write_text(_CLASSES)
    counts = _counts(tmp_path)
    assert counts["a.py"] == (2, 0, 0)  # def documented(): / pass
    assert counts["b.py"][1:] == (3, 0)  # left, right, value; a field is no option
    assert counts["total"] == (2 + counts["b.py"][0], 3, 0)


def test_counts_options(tmp_path):
    (tmp_path / "c.py").write_text(_OPTIONS)
    (tmp_path / "d.py").write_text("def f(a, b=2):\n    pass\n")
    counts = _counts(tmp_path)
    # b and c of public, size, keyword, and --flag
    assert counts["c.py"][1:] == (0, 5)
    assert counts["total"][1:] == (0, 6)
