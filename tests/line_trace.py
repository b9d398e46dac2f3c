"""Lines of ``src/sipcert`` that no in-process tier-1 test runs.

Run from the repository root:

    python tests/line_trace.py [pytest arguments]

It runs pytest on ``tests`` (or on the given arguments) in this process
under ``sys.settrace`` and prints, file by file, each executable line of the
package that never ran, then their count. The lines of a ``raise``
statement, and the head of an ``except`` clause that only raises, are left
out: they reject bad input, and the validation tests reach many of them
through the CLI's subprocesses, which are not traced. A line printed is one
that no test runs in this process. pytest does not collect this file.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sipcert"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some code object compiled from ``path`` runs."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def validation_lines(path: Path) -> set[int]:
    """The lines of each ``raise`` statement, and the head of each ``except``
    clause that only raises."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.ExceptHandler) and all(
                isinstance(stmt, ast.Raise) for stmt in node.body):
            lines.add(node.lineno)
    return lines


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename not in ran:
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)  # the call: its def line
        return local

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name, path in files.items():
        missed = sorted(executable_lines(path) - validation_lines(path) - ran[name])
        source = path.read_text().splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        total += len(missed)
    print(f"{total} lines of src/sipcert ran in no test (pytest exit code {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
