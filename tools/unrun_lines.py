"""List the lines of ``src/i3metrics`` that no test runs.

Usage::

    python tools/unrun_lines.py [PYTEST_ARGS ...]

Runs pytest in this process on the given arguments (none: the
``testpaths`` of ``pyproject.toml``) under a ``sys.settrace`` line
tracer.  Then it prints ``path:line: source`` for each line of the
package's modules that compiles to code and never ran, in path and
line order.  A line that runs only in a child process, such as the body
of the ``i3metrics`` console script, counts as unrun.  The exit status
is pytest's.  Stdlib and pytest only, so it runs wherever Tier-1 does.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "i3metrics"


def executable_lines(path: Path) -> set[int]:
    """The lines that some code object compiled from ``path`` has an instruction on."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines


def _line_tracer(seen: set[int]):
    """A local trace function adding each line its frame runs to ``seen``."""
    def trace_lines(frame, event, arg):
        seen.add(frame.f_lineno)
        return trace_lines
    return trace_lines


def main(argv: list[str]) -> int:
    import pytest

    ran: dict[Path, set[int]] = {path: set() for path in sorted(PACKAGE.glob("*.py"))}
    tracers: dict = {}  # co_filename -> the line tracer of its module, or None

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            seen = ran.get(Path(name).resolve())
            tracers[name] = None if seen is None else _line_tracer(seen)
        return tracers[name]

    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
    for path, seen in ran.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - seen):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
