"""Regenerate reference.json, the projectivity distances the checks compare against.

Run from the repository root: python3 perfbench/make_reference.py
The values come from perfbench/oracle.py alone, not from projgraph.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import oracle

AXIS = (-2.0, -1.0, 0.0, 1.0, 2.0)


def main() -> None:
    grid = list(itertools.product(AXIS, repeat=2))
    tvs = oracle.edge_triangle_tv(7, 6, grid)
    rows = ",\n".join(
        "  " + json.dumps({"theta": list(theta), "tv": tv}) for theta, tv in zip(grid, tvs)
    )
    path = Path(__file__).with_name("reference.json")
    path.write_text('{"edge_triangle_tv_n7_sub6": [\n' + rows + "\n]}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
