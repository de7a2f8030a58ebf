"""The README's library quickstart and worked example run as written, so a
name deleted from the package cannot stay in the README."""

import re
import shlex
from pathlib import Path

from momint.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the line ``heading``."""
    section = README.split("\n" + heading + "\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs():
    exec(code_block("## Library quickstart", "python"), {})


def test_worked_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = iter(code_block("### Worked example", "sh").splitlines())
    commands = 0
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            body = []
            for text in lines:
                if text == "EOF":
                    break
                body.append(text)
            Path(heredoc.group(1)).write_text("\n".join(body) + "\n")
        elif line.startswith("momint "):
            assert main(shlex.split(line)[1:]) == 0, line
            commands += 1
        else:
            assert not line.strip(), f"unhandled README line {line!r}"
    assert commands == 3
    assert "error" not in capsys.readouterr().err
