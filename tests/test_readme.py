"""The README's library quickstart and worked example run as written, so a
name deleted from the package cannot stay in the README, and its check
configuration table is the table ``momint.certify.CHECKS`` reads."""

import inspect
import re
import shlex
from pathlib import Path

from momint.certify import CHECKS, _Objects
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


def shown_keys(cell: str, separator: str) -> dict:
    """{key: its default in parentheses, or None} of a table cell whose
    parts, joined by ``separator``, each start with a key in backticks."""
    keys = {}
    for part in cell.split(separator):
        key, default = re.match(r"\s*`(\w+)`(?: \((.*?)\))?", part).groups()
        keys[key] = default
    return keys


def readme_check_rows() -> dict:
    """{kind: (keys cell, entry objects cell)} of the README's check table."""
    section = README.split("\nCheck configuration: ", 1)[1]
    table = re.search(r"\n(\| check \|.*?)\n\n", section, re.S).group(1).splitlines()
    assert [cell.strip() for cell in table[0].split("|")[1:-1]] == [
        "check", "keys (default)", "entry objects"]
    rows = {}
    for line in table[2:]:
        kind, keys, entries = (cell.strip() for cell in line.split("|")[1:-1])
        rows[kind.strip("`")] = (keys, entries)
    return rows


def test_readme_check_table_matches_checks():
    rows = readme_check_rows()
    assert list(shown_keys(rows.pop("every check")[0], ";")) == ["check", "tol"]
    assert list(rows) == list(CHECKS)
    for kind, (check, readers) in CHECKS.items():
        keys, entries = rows[kind]
        shown = shown_keys(keys, ";")
        assert list(shown) == list(readers), kind
        parameters = inspect.signature(check).parameters
        for key, default in shown.items():
            own = parameters[key].default
            if default is None:
                assert own is inspect.Parameter.empty, f"{kind} {key} has a default"
            elif re.fullmatch(r"[\d.]+", default):
                assert own == float(default), f"{kind} {key}"
            else:  # a default that depends on the input, such as `a`
                assert own is None, f"{kind} {key}"
        objects = {key: reader for key, reader in readers.items() if isinstance(reader, _Objects)}
        shown_entries = {}
        for cell in filter(None, entries.split("; ")):
            name, fields = cell.split(": ", 1)
            shown_entries[name.strip("`")] = shown_keys(fields, ",")
        assert list(shown_entries) == list(objects), kind
        for name, fields in shown_entries.items():
            assert list(fields) == list(objects[name].readers), f"{kind} {name}"
            assert {k: float(v) for k, v in fields.items() if v} == objects[name].defaults
