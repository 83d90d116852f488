"""Shipped cover-by-two path certificates and the example strategy table.

Each ``.cover`` data file encodes one or two eventually-periodic paths with
their red (not globally consistent) edges; the checker unrolls them over a
window of lengths and validates both the covering property and the color
coding.  All shipped figures are concrete at three holes, where the initial
chain collapses to the single node 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Optional

from pebblegames.simple_game import (
    EdgeRef,
    PathSpec,
    SimpleStrategy,
    check_cover_by_two,
    parse_strategy,
)


@dataclass(frozen=True)
class CoverFigure:
    name: str
    n: int
    threshold: int
    paths: tuple[PathSpec, ...]

    def check(self, horizon: int) -> bool:
        a = self.paths[0]
        b = self.paths[1] if len(self.paths) > 1 else None
        return check_cover_by_two(a, b, self.threshold, horizon)


class FigureParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_cover(text: str) -> CoverFigure:
    name: Optional[str] = None
    n = threshold = None
    paths: list[PathSpec] = []
    prefix: list[EdgeRef] = []
    cycle: list[EdgeRef] = []
    red: set[EdgeRef] = set()
    in_cycle = False
    started = False

    def flush(line_no: int) -> None:
        nonlocal prefix, cycle, red, in_cycle
        if not prefix and not cycle:
            raise FigureParseError(line_no, "empty path")
        paths.append(PathSpec(tuple(prefix), tuple(cycle), frozenset(red)))
        prefix, cycle, red, in_cycle = [], [], set(), False

    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0]
        if key == "cover":
            name = parts[1]
        elif key == "n":
            n = int(parts[1])
        elif key == "threshold":
            threshold = int(parts[1])
        elif key == "path":
            if started:
                flush(line_no)
            started = True
        elif key == "cycle":
            in_cycle = True
        elif key in ("edge", "red-edge"):
            if len(parts) != 3:
                raise FigureParseError(line_no, f"bad edge line {line!r}")
            e = EdgeRef(int(parts[1]), int(parts[2]))
            (cycle if in_cycle else prefix).append(e)
            if key == "red-edge":
                red.add(e)
        else:
            raise FigureParseError(line_no, f"unknown key {key!r}")
    if not started:
        raise FigureParseError(line_no or 1, "no path in cover file")
    flush(line_no)
    if name is None or n is None or threshold is None:
        raise FigureParseError(1, "missing cover/n/threshold header")
    return CoverFigure(name, n, threshold, tuple(paths))


# The complete set of shipped certificates: the four base cases, the
# derivation covers, and the appendix covers.
FIGURE_NAMES = (
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig9",
    "fig12",
    "fig14",
    "fig15",
    "fig19",
    "fig21",
    "fig24",
    "php5",
    "php6",
    "php7",
    "php10",
    "php12",
)


def load_figure(name: str) -> CoverFigure:
    if name not in FIGURE_NAMES:
        raise KeyError(f"unknown figure {name!r}")
    text = (
        resources.files("pebblegames")
        .joinpath(f"data/figures/{name}.cover")
        .read_text()
    )
    return parse_cover(text)


def example_strategy() -> SimpleStrategy:
    """The shipped four-node example table (three loop edges)."""
    text = resources.files("pebblegames").joinpath("data/fig1.strat").read_text()
    return parse_strategy(text)
