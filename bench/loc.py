"""Line counts of the ``signpoly`` package, per module and in total.

For every ``.py`` file under ``--src`` (default: this checkout's
``src/signpoly``) it counts the lines as ``wc -l`` does, and the code
lines: lines that hold a token outside module, class and function
docstrings and ``#`` comments (a string that spans lines counts on each
of them).  Prints one JSON object::

    python3 bench/loc.py
    python3 bench/loc.py --src ../parent/src/signpoly
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Tokens that are layout, not code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str) -> dict:
    """``{"lines": ..., "code": ...}`` of one module's source."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return {"lines": text.count("\n"), "code": len(code - docstrings)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src" / "signpoly",
                        help="package directory (default: ./src/signpoly)")
    args = parser.parse_args(argv)
    modules = {str(path.relative_to(args.src)): count(path.read_text())
               for path in sorted(args.src.rglob("*.py"))}
    total = {key: sum(m[key] for m in modules.values()) for key in ("lines", "code")}
    print(json.dumps({"src": str(args.src), "modules": modules, "total": total},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
