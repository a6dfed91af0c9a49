"""tools/ast_lines.py: the line and public-field counts of ROADMAP aim 2."""

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


def _counts(package: Path) -> dict[str, tuple[int, int]]:
    out = subprocess.run([sys.executable, str(_SCRIPT), str(package)],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    return {name: (int(lines), int(fields)) for lines, fields, name in rows}


def test_counts_lines_without_docstrings_and_public_fields(tmp_path):
    (tmp_path / "a.py").write_text('def documented():\n    """Only a docstring."""\n')
    (tmp_path / "b.py").write_text(_CLASSES)
    counts = _counts(tmp_path)
    assert counts["a.py"] == (2, 0)  # def documented(): / pass
    assert counts["b.py"][1] == 3  # left, right, value
    assert counts["total"] == (2 + counts["b.py"][0], 3)
