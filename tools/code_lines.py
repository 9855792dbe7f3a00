"""Print the code lines of each eprkit module, and their total.

A code line is a line of a module that holds a token other than a comment,
a docstring, or the newline, indent and dedent tokens; so blank lines,
comment lines and docstring lines do not count. A docstring is the string
expression that opens a module, class or function body, as
``ast.get_docstring`` finds it. A token spanning several lines, such as a
multi-line string that is not a docstring, counts each of its lines.

Run from the repository root::

    python3 tools/code_lines.py

It prints the code lines of each ``src/eprkit`` module and their total, and
checks nothing.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path("src/eprkit")

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of the module at ``path``."""
    source = path.read_bytes()
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in NOT_CODE or (token.type == tokenize.STRING and token.start[0] in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for module in sorted(PACKAGE.glob("*.py")):
        code = code_lines(module)
        total += code
        print(f"{code:>6}  {module}")
    print(f"{total:>6}  total")


if __name__ == "__main__":
    main()
