"""The README's examples work as shown: the command-line examples print
exactly what the README shows, the library snippet runs, and the instance
file parses."""

import re
import shlex
from pathlib import Path

from leximinflow import cli
from leximinflow.fileio import parse_instance
from leximinflow.rational import Rational

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, expected stdout) for each ``$ leximinflow`` line of the README's
    text blocks, in README order; the output is the block's lines up to the
    next command."""
    examples = []
    in_text_block = False
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_text_block = line == "```text"
            current = None
        elif in_text_block and line.startswith("$ leximinflow "):
            current = []
            examples.append((shlex.split(line)[2:], current))
        elif current is not None:
            current.append(line + "\n")
    return [(argv, "".join(lines)) for argv, lines in examples]


def test_readme_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == ["generate", "allocate", "audit", "manipulate"]
    for argv, expected in examples:
        code = cli.main(argv)
        assert (argv, code, capsys.readouterr().out) == (argv, 0, expected)


def readme_blocks(language):
    """The bodies of the README's ``language`` code blocks, in README order."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_readme_library_snippet_runs():
    [snippet] = readme_blocks("python")
    exec(compile(snippet, str(README), "exec"), {})


def test_readme_instance_file_parses():
    [text] = readme_blocks("json")
    instance = parse_instance(text)
    assert instance.agents == ("a1", "a2")
    assert instance.endowment["a2"] == Rational(2, 3)
    assert instance.demand == {("a1", "b1"): Rational(1, 2)}
