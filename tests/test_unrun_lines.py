"""The unrun-line lister, run as a script on one small test file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = ROOT / "src" / "i3metrics" / "cli.py"


def line_of(text: str) -> int:
    """The number of the one line of cli.py that reads ``text`` once stripped."""
    numbers = [k for k, line in enumerate(CLI.read_text(encoding="utf-8").splitlines(), 1)
               if line.strip() == text]
    assert len(numbers) == 1, numbers
    return numbers[0]


def test_lists_the_console_body_and_not_a_line_the_tests_run():
    done = subprocess.run(
        [sys.executable, "tools/unrun_lines.py", "-q", "-p", "no:cacheprovider",
         "tests/test_bench_hooks.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    listed = {line.split(": ", 1)[0] for line in done.stdout.splitlines()
              if line.startswith("src/")}
    # console() runs only as the installed script, in a child process.
    assert f"src/i3metrics/cli.py:{line_of('sys.exit(main())')}" in listed
    # test_bench_hooks.py imports the cli module, which runs the def line.
    assert f"src/i3metrics/cli.py:{line_of('def console() -> None:')}" not in listed
