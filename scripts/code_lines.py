"""Code lines per module of the `polystate` package: lines that hold code,
not counting blank lines, comment-only lines or the lines of docstrings
(the first statement of a module, class or function when it is a string).

    python scripts/code_lines.py                  # this checkout
    python scripts/code_lines.py path/to/src/polystate

Prints one `module<TAB>lines` row per module, sorted by name, and a `total`
row last.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polystate"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines on which some token is code, less the docstring lines."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE,
                        help="package directory (default: this checkout's src/polystate)")
    args = parser.parse_args()
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem}\t{count}")
    print(f"total\t{total}")


if __name__ == "__main__":
    main()
