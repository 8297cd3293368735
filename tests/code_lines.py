"""Print the code lines of each module of ``src/ttwsusy`` and their total.

    python tests/code_lines.py [PACKAGE_DIR]

A code line is a physical line that carries at least one token of code,
as ``tokenize`` reads it: blank lines, comment lines and the lines of
module, class and function docstrings do not count.  A statement that
spans several lines counts each of them.  Not a pytest module (pytest
collects only test_*.py).
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one source file."""
    docstrings = _docstring_lines(ast.parse(path.read_text()))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                lines.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in docstrings)
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "ttwsusy"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20s} {count:5d}")
    print(f"{'total':20s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
