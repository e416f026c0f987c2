"""Run the test suite under a line tracer and fail on untested source lines.

    PYTHONPATH=src python tests/untested_lines.py [pytest arguments]

Every line of ``src/metaembed`` that compiles to bytecode must run in at
least one test, except those in ``ALLOWED``.  Uses the standard library
only (``sys.settrace``), so no coverage package is needed; tests that
run the CLI in a child process do not count.  Exits 1 when the suite
fails, a line is reached by no test, or an allowed line is reached.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "metaembed"

# (file, line) pairs no test needs to reach.
ALLOWED = {
    # minibatches' batch_size check and loss_plateaued's zero-loss exit:
    # AdaGrad helpers that no fit calls any more (ROADMAP item 7).
    ("optimizer.py", 124),
    ("optimizer.py", 136),
    # the body of `if __name__ == "__main__":`
    ("cli.py", 430),
}


def executable_lines(path: Path) -> set[int]:
    """The lines that some bytecode of ``path`` is attributed to."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's prelude
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
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
    untested = sorted(expected - reached - ALLOWED)
    stale = sorted(ALLOWED & reached)
    for name, line in untested:
        print(f"src/metaembed/{name}:{line}: reached by no test")
    for name, line in stale:
        print(f"src/metaembed/{name}:{line}: allowed to be untested, but reached")
    print(f"{len(reached & expected)} of {len(expected)} source lines reached")
    return int(bool(status or untested or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
