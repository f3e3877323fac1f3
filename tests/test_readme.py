"""The README examples, run as written from the root of the checkout."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from polygauss import cli

ROOT = Path(__file__).resolve().parents[1]


def _blocks(language: str) -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def _cli_examples() -> list[tuple[str, list[str]]]:
    """Each `$ polygauss ...` line with the lines printed under it."""
    examples = []
    for block in _blocks("sh"):
        printed = None
        for line in block.splitlines():
            if line.startswith("$ "):
                printed = []
                examples.append((line[2:], printed))
            elif printed is not None:
                printed.append(line)
    return examples


def test_readme_cli_examples(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    examples = _cli_examples()
    assert examples
    for command, printed in examples:
        program, *argv = shlex.split(command)
        assert program == "polygauss"
        assert cli.main(argv) == 0, command
        assert capsys.readouterr().out.splitlines() == printed, command


def test_readme_library_example(monkeypatch):
    # each `# value` comment is the str() of the expression on its line,
    # or of the argument of its print(); the lines between them run as code
    monkeypatch.chdir(ROOT)
    (block,) = _blocks("python")
    namespace: dict = {}
    checked = []
    pending = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        code = code.strip()
        if code.startswith("print(") and code.endswith(")"):
            code = code[len("print("):-1]
        assert str(eval(code, namespace)) == comment.strip(), line
        checked.append(comment.strip())
    assert checked == ["infinity", "36", "True", "True"]
