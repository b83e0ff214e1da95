"""The README's examples run and print what the README says they print.

The Library tour block runs as a script; the Example session replays its
``qha`` lines through the command's entry point in an empty directory.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from qha.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block_after(heading: str, fence: str) -> str:
    """The first fenced block of the given fence opener after heading."""
    start = README.index(fence, README.index(heading)) + len(fence)
    return README[start:README.index("```", start)]


def test_library_tour_prints_its_documented_dims():
    tour = _block_after("## Library tour", "```python\n")
    assert re.search(r"# \[1, 0, 1, 0, 1\]\n$", tour)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", tour], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.splitlines()[-1] == "[1, 0, 1, 0, 1]"


def test_example_session_replays(tmp_path, monkeypatch, capsys):
    session = _block_after("Example session:", "```\n")
    assert '"dims": [1, 0, 1, 0, 1]' in session
    monkeypatch.chdir(tmp_path)
    commands = [line for line in session.splitlines() if line.startswith("qha ")]
    assert len(commands) == 5
    for line in commands:
        capsys.readouterr()
        assert main(shlex.split(line)[1:]) == 0, line
    assert '"dims": [1, 0, 1, 0, 1]' in capsys.readouterr().out
