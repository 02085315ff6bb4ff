"""Count the code lines of Python files.

    python3 scripts/code_lines.py [FILE ...]

A code line holds a token other than a comment, a newline or an indent;
the lines of module, class and function docstrings (found with ``ast``) do
not count.  Prints each file's count and the total; with no file given it
counts ``src/skolemgen/*.py`` of this repository.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

from skolemgen.cli import run_to_stdout

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skolemgen"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of code lines in the file at ``path``."""
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    files = args.files or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:>6} {path}")
    print(f"{total:>6} total")
    return 0


if __name__ == "__main__":
    sys.exit(run_to_stdout(main))
