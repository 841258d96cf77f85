"""The cross-interpreter digest tool, run as a script with this interpreter alone."""

import subprocess
import sys
from pathlib import Path

from test_stdout_bytes import COMMANDS

ROOT = Path(__file__).resolve().parent.parent


def test_prints_the_pinned_digests_and_exits_0_with_one_interpreter():
    done = subprocess.run(
        [sys.executable, "tools/stdout_digests.py", sys.executable],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# ") and lines[0].endswith(f": {sys.executable}")
    found = {name: digest for name, _, digest in map(str.split, lines[1:])}
    assert len(found) == len(lines) - 1 == 21
    # The nine commands of the byte guard print the digests it pins.
    assert {name: found[name] for name in COMMANDS} == {
        name: digest for name, (_, digest) in COMMANDS.items()}
