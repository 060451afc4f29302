"""The command table against the README, and input checks of the command
line: malformed batch manifest rows and a negative beta exit with code 1."""

import json
from pathlib import Path

import pytest

from tritile.cli import COMMANDS, main, run

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples() -> list[list[str]]:
    """The words of each line in the README's "Command line" code block."""
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split() for line in block.splitlines() if line.strip()]


def test_readme_has_an_example_for_every_command():
    examples = _readme_examples()
    assert all(words[0] == "tritile" for words in examples)
    named = {words[1] for words in examples}
    assert named - set(COMMANDS) == set(), "README names an unknown command"
    assert set(COMMANDS) - named == set(), "a command has no README example"


@pytest.fixture
def k10(tmp_path):
    inst = tmp_path / "k10.kg"
    assert run(["gen", "complete", "--n", "10", "--k", "3", "-o", str(inst)])[1] == 0
    return inst


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]",
        '"info k10.kg"',
        '{"id": "s", "args": "info k10.kg"}',
        '{"id": "none"}',
        '{"id": "int", "args": ["info", 3]}',
    ],
    ids=["list", "string", "string-args", "no-args", "non-string-arg"],
)
def test_malformed_manifest_row_exits_1(tmp_path, capsys, k10, line):
    good = json.dumps({"id": "ok", "args": ["info", str(k10)]})
    manifest = tmp_path / "rows.jsonl"
    manifest.write_text(f"# rows\n{good}\n\n{line}\n")
    out = tmp_path / "rows.csv"
    assert main(["batch", str(manifest), "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: manifest line 4: expected a JSON object with a list of strings 'args'"
    ]
    assert not out.exists()  # the manifest is checked before any row runs


def test_non_json_manifest_row_exits_1(tmp_path, capsys):
    manifest = tmp_path / "rows.jsonl"
    manifest.write_text("info k10.kg\n")
    assert main(["batch", str(manifest)]) == 1
    assert capsys.readouterr().err.startswith("error: Expecting value: line 1 column 1")


def test_negative_beta_exits_1(capsys, k10):
    capsys.readouterr()
    assert main(["lattice", str(k10), "--blocks", "0-4;5-9", "--beta=-1/2"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: beta must be nonnegative"]
