"""The Python examples in README.md run and print what their comments state,
and its command-line transcripts print what they show."""

import re
import shlex
from pathlib import Path

import pytest

from projgraph import registered_families, unregister_family
from projgraph.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
TEXT_BLOCKS = re.findall(r"^```text\n(.*?)^```", README.read_text(encoding="utf-8"),
                         re.M | re.S)


def _transcript(block: str) -> list[tuple[list[str], str]]:
    """(arguments, stdout) of each ``$ projgraph`` command of a ``text``
    block, with its continuation lines joined; the lines up to the next
    command, blank lines at the end dropped, are its output."""
    runs = []
    for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
        lines = chunk.rstrip("\n").split("\n")
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        program, *arguments = shlex.split(command)
        assert program == "projgraph", command
        runs.append((arguments, "".join(line + "\n" for line in lines)))
    return runs


# Commands whose output the README shows in full: a block with "..." elides some.
COMMANDS = [run for block in TEXT_BLOCKS if "..." not in block for run in _transcript(block)]


def _run(block: str) -> None:
    """Execute one README block; families it leaves registered are removed."""
    before = set(registered_families())
    try:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    finally:
        for name in set(registered_families()) - before:
            unregister_family(name)


def _block(marker: str) -> str:
    (block,) = [b for b in BLOCKS if marker in b]
    return block


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    _run(BLOCKS[index])


def test_quick_start_prints_the_pinned_values(capsys):
    _run(_block("projectivity_check"))
    lines = capsys.readouterr().out.splitlines()
    # n=4 -> 3 marginal at theta=(0, 0.5), and BernoulliOffset at theta=0,
    # both pinned in test_exact.py
    assert float(lines[0]) == pytest.approx(0.06841396308485281, abs=1e-10)
    verdict, max_tv = lines[1].split()
    assert verdict == "non-projective"
    assert float(max_tv) == pytest.approx(0.090125, abs=1e-10)


def test_custom_family_prints_its_statistic(capsys):
    _run(_block("register_family("))
    # K4: four nodes of degree 3, each the centre of C(3, 2) = 3 two-stars
    assert capsys.readouterr().out == "(12.0,)\n"
    assert "TwoStars" not in registered_families()


def test_the_readme_shows_full_transcripts():
    assert {arguments[0] for arguments, _ in COMMANDS} >= {"check-projectivity", "stats",
                                                         "loglik", "mle"}


@pytest.mark.parametrize("arguments, stdout", COMMANDS, ids=[a[0] for a, _ in COMMANDS])
def test_readme_transcript_prints_what_it_shows(tmp_path, monkeypatch, capsys, arguments, stdout):
    """Each command runs on a ``y.edgelist`` with the README's statistics
    (4 nodes, 2 edges, no triangle, disconnected) and prints the shown
    output, byte for byte."""
    (tmp_path / "y.edgelist").write_text("4\n0 1\n2 3\n")
    monkeypatch.chdir(tmp_path)
    assert main(arguments) == 0
    assert capsys.readouterr().out == stdout
