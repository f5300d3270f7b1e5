"""Table 1: all (QW, QR, X, F) configurations for N = 7.

Pure quorum algebra — regenerated exactly, including the highlighted
maximum-X row per fault-tolerance level.
"""

from __future__ import annotations

from ...core import ConfigRow, enumerate_configs
from ..report import table


def run(n: int = 7, quick: bool = True) -> list[ConfigRow]:
    return enumerate_configs(n)


def render(rows: list[ConfigRow]) -> str:
    return table(
        f"Table 1: configurations at N={rows[0].n}" if rows else "Table 1",
        ["N", "QW", "QR", "X", "F", "max-X"],
        [
            (r.n, r.q_w, r.q_r, r.x, r.f, "*" if r.max_x_for_f else "")
            for r in rows
        ],
    )


def main(quick: bool = True) -> None:
    print(render(run(quick=quick)))


if __name__ == "__main__":
    main()
