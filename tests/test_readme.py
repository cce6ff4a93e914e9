"""The Python examples in README.md run and print what their comments state."""

import re
from pathlib import Path

import pytest

from projgraph import registered_families, unregister_family

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


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
