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

from pebblegames.matching import Record
from pebblegames.simple_game import (
    ParseError,
    PathSpec,
    SimpleStrategy,
    check_cover_by_two,
    file_lines,
    parse_strategy,
    read_header,
)


@dataclass(frozen=True)
class CoverFigure:
    name: str
    threshold: int
    paths: tuple[PathSpec, ...]

    def check(self, horizon: int) -> bool:
        return check_cover_by_two(self.paths, self.threshold, horizon)


def parse_cover(text: str) -> CoverFigure:
    """Read a cover file.  A line that cannot be read, a repeated header key,
    an edge or ``cycle`` line before the first ``path``, a second ``cycle``
    in one path, or an edge off the header's ``n``-hole board, is refused
    naming its line."""
    header: dict[str, tuple] = {}  # key -> (value, line)
    paths: list[PathSpec] = []
    prefix: list[Record] = []
    cycle: list[Record] = []
    red: set[Record] = set()
    placed: list[tuple[Record, int]] = []  # every edge with its line
    in_cycle = False
    started = False

    def flush(line_no: int) -> None:
        nonlocal prefix, cycle, red, in_cycle
        if not prefix and not cycle:
            raise ParseError(line_no, "empty path")
        try:
            paths.append(PathSpec(tuple(prefix), tuple(cycle), frozenset(red)))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
        prefix, cycle, red, in_cycle = [], [], set(), False

    line_no = 0
    for line_no, line, parts in file_lines(text):
        key = parts[0]
        try:
            if key in ("cover", "n", "threshold"):
                read_header(header, line_no, line, str if key == "cover" else int)
            elif key == "path":
                if started:
                    flush(line_no)
                started = True
            elif key in ("cycle", "edge", "red-edge") and not started:
                raise ParseError(line_no, f"{key!r} before the first 'path'")
            elif key == "cycle":
                if in_cycle:
                    raise ParseError(line_no, "second 'cycle' in one path")
                in_cycle = True
            elif key in ("edge", "red-edge"):
                if len(parts) != 3:
                    raise ParseError(line_no, f"bad edge line {line!r}")
                e = Record(int(parts[1]), int(parts[2]))
                (cycle if in_cycle else prefix).append(e)
                placed.append((e, line_no))
                if key == "red-edge":
                    red.add(e)
            else:
                raise ParseError(line_no, f"unknown key {key!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(line_no, f"cannot parse {line!r}") from exc
    if not started:
        raise ParseError(line_no or 1, "no path in cover file")
    flush(line_no)
    if not {"cover", "n", "threshold"} <= header.keys():
        raise ParseError(1, "missing cover/n/threshold header")
    (name, _), (n, _), (threshold, _) = (header[k] for k in ("cover", "n", "threshold"))
    for e, at in placed:
        if not (0 <= e.pigeon <= n and 0 <= e.hole < n):
            raise ParseError(at, f"edge {tuple(e)} is off the {n}-hole board")
    return CoverFigure(name, threshold, tuple(paths))


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
    figure = parse_cover(text)
    if figure.name != name:
        raise ValueError(f"{name}.cover holds cover {figure.name!r}")
    return figure


def example_strategy() -> SimpleStrategy:
    """The shipped four-node example table (three loop edges)."""
    text = resources.files("pebblegames").joinpath("data/fig1.strat").read_text()
    return parse_strategy(text)
