"""Count code lines and physical lines of one Python file or of the Python
files under a directory.

A code line holds at least one token that is not a comment and is not part
of a docstring (the leading string literal of a module, class or function
body). Blank lines, comment-only lines and docstring lines are not code.
Physical lines are all lines of the file.

Usage: python tools/count_code_lines.py <dir or .py file>
"""

import ast
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers covered by docstrings anywhere in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_file(path):
    """(code lines, physical lines) of one Python source file."""
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NON_CODE:
                code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                            if line not in skip)
    return len(code), len(source.splitlines())


def main(argv):
    if len(argv) != 1:
        print("usage: count_code_lines.py <dir or .py file>", file=sys.stderr)
        return 2
    root = Path(argv[0])
    if root.is_dir():
        paths = sorted(root.rglob("*.py"))
    elif root.is_file() and root.suffix == ".py":
        paths = [root]
    else:
        print(f"count_code_lines.py: {root} is neither a directory nor a .py file",
              file=sys.stderr)
        return 2
    total_code = total_physical = 0
    for path in paths:
        code, physical = count_file(path)
        total_code += code
        total_physical += physical
        print(f"{code:6d} {physical:6d}  {path}")
    print(f"{total_code:6d} {total_physical:6d}  total (code, physical)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
