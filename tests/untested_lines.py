"""Run the test suite under a line tracer and fail on untested source lines.

    PYTHONPATH=src python tests/untested_lines.py [pytest arguments]

Every line of ``src/metaembed`` that compiles to bytecode must run in at
least one test, except the body of a module-level
``if __name__ == "__main__":``.  Uses the standard library only
(``sys.settrace``), so no coverage package is needed; tests that run the
CLI in a child process do not count.  Exits 1 when the suite fails or a
line is reached by no test.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "metaembed"


def executable_lines(path: Path) -> set[int]:
    """The lines that some bytecode of ``path`` is attributed to, less the
    body of a module-level ``if __name__ == "__main__":``."""
    source = path.read_text(encoding="utf-8")
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's prelude
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines -= set(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


def main(args: list[str]) -> int:
    names: dict[str, str | None] = {}  # code file name -> source file name, or None
    reached: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            reached.add((names[frame.f_code.co_filename], frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in names:
            path = Path(filename).resolve()
            names[filename] = path.name if path.parent == SOURCE else None
        return trace_lines if names[filename] else None

    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-W", "error", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)

    expected = {(p.name, line) for p in SOURCE.glob("*.py")
                for line in executable_lines(p)}
    untested = sorted(expected - reached)
    for name, line in untested:
        print(f"src/metaembed/{name}:{line}: reached by no test")
    print(f"{len(reached & expected)} of {len(expected)} source lines reached")
    return int(bool(status or untested))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
