"""Count the lines of code in each ``src/polarsc`` module and in all of them.

A line counts when it holds a token other than a comment, and is not part of a
module, class or function docstring; blank lines, comment lines and docstrings
do not count. The count uses only ``ast`` and ``tokenize``. Run it as

    python scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polarsc"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(text):
    """The number of lines of the Python source ``text`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5d}")
    print(f"{'total':16} {total:5d}")


if __name__ == "__main__":
    main()
