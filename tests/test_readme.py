import contextlib
import io
import re
import shlex
from pathlib import Path

from helpers import run_cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{README}:Library use", "exec"), {})
    assert out.getvalue().split()[-1] == "True"  # report.proved


def _quick_start_commands():
    """(arguments, printed lines) of every ``$ mixprec`` line in the Quick start."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):text.index("## Commands")]
    commands = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("$ mixprec "):
                commands.append((shlex.split(line)[2:], []))
            elif line:
                commands[-1][1].append(line)
    return commands


def test_quick_start_transcript_matches(tmp_path, monkeypatch):
    # A line holding only "..." stands for any number of printed lines.
    monkeypatch.chdir(tmp_path)
    commands = _quick_start_commands()
    assert len(commands) == 7
    for args, lines in commands:
        code, out, err = run_cli(*args)
        assert code == 0, (args, err)
        pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                          for line in lines)
        assert re.fullmatch(pattern, out), (args, out)
