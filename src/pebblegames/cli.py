"""Command-line entry point.

Subcommands: ``analyze`` a strategy file, ``play`` it against an answers
file, ``verify`` a claim campaign, ``order`` two tree files, and ``g2sim``
a backtracking-game transcript.  Exit codes: 0 success / zero
counterexamples, 1 counterexamples found, 2 usage or input errors.  Any
other failure is a fault of the program and propagates as an exception.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from pebblegames.matching import LogPower, Query
from pebblegames import simple_game as sg
from pebblegames import php_tree as phpmod
from pebblegames import trees as treemod
from pebblegames import verify as ver
from pebblegames import g2 as g2mod


class InputError(Exception):
    """A file or argument value the program cannot use (exit code 2)."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is not a non-negative integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pebblegames",
        description="Engines and verifiers for Prover-Delayer pebble games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="print graph, loops, php-tree and win certificate")
    p_an.add_argument("strategy", type=Path)
    p_an.add_argument("--s-max", type=_positive_int, default=64)

    p_pl = sub.add_parser("play", help="replay a strategy against an answers file")
    p_pl.add_argument("strategy", type=Path)
    p_pl.add_argument("answers", type=Path)

    p_ve = sub.add_parser("verify", help="run a verification campaign")
    p_ve.add_argument("claim")
    # Every option but --no-timing defaults to None, meaning unset: the claim
    # takes its campaign's default, and a claim that does not read it refuses it.
    p_ve.add_argument("--threads", type=_positive_int)
    p_ve.add_argument("--seed", type=_nonnegative_int)
    p_ve.add_argument("--playouts", type=_positive_int)
    p_ve.add_argument("--samples", type=_positive_int)
    p_ve.add_argument("--ce-dir", type=Path)
    p_ve.add_argument("--no-timing", action="store_true", help="print seconds=0.000 for reproducible output")

    p_or = sub.add_parser("order", help="compare two tree files under the tree order")
    p_or.add_argument("tree_a", type=Path)
    p_or.add_argument("tree_b", type=Path)

    p_g2 = sub.add_parser("g2sim", help="simulate the backtracking game")
    p_g2.add_argument("--n", type=int, required=True)
    p_g2.add_argument("--C", type=int, default=2)
    p_g2.add_argument("--answers", type=Path, default=None,
                      help="hole answers consumed left to right; canonical otherwise")
    return parser


def _input(read: Callable[[], object]):
    """``read()`` of input from a file or an argument, where a ``ValueError``
    (a failed decode or parse) means the input is bad, not the program."""
    try:
        return read()
    except ValueError as exc:  # ParseError included
        raise InputError(exc) from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    strat = _input(lambda: sg.parse_strategy(args.strategy.read_text()))
    print(f"strategy: n={strat.size.n} s={strat.s} init={strat.init}")
    print(f"graph: {len(strat.size.pigeons)} nodes, {len(strat.edges())} edges")
    for line in sg.adjacency_lines(strat):
        print("  " + line)
    loops = sorted(sg.find_loops(strat))
    print("loops: " + (" ".join(f"({e.pigeon},{e.hole})" for e in loops) if loops else "none"))
    if strat.size.pigeon_count is None:
        tree = phpmod.build_php_tree(strat)
        loose = sorted(phpmod.find_loose_pairs(tree, strat.size))
        print(
            "loose pairs: "
            + (" ".join(f"({p},{h})" for p, h in loose) if loose else "none")
        )
        print(
            f"php-tree: {len(tree)} nodes, depth {tree.depth}, "
            f"valid={'yes' if phpmod.validate_php_tree(tree) else 'no'}, "
            f"complete={'yes' if phpmod.is_complete(tree) else 'no'}, "
            f"symmetric={'yes' if phpmod.is_symmetric(tree) else 'no'}"
        )
    else:
        print("php-tree: not defined for boards with extra pigeons")
    cert = sg.delayer_wins_lengths(strat, s_max=args.s_max)
    print("delayer wins: " + cert.summary())
    return 0


def _cmd_play(args: argparse.Namespace) -> int:
    strat = _input(lambda: sg.parse_strategy(args.strategy.read_text()))
    play = _input(lambda: sg.parse_play(args.answers.read_text()))
    result = _input(lambda: sg.play_simplified(strat, play))  # rejects answers that do not fit
    for i, rec in enumerate(result.records, start=1):
        print(f"round {i}: question {rec.pigeon} answer {rec.hole}")
    tag = {
        sg.PlayOutcome.PROVER_WINS_MIDGAME: f"prover wins midgame at round {result.step}",
        sg.PlayOutcome.PROVER_WINS_FINAL: "prover wins on the final comparison",
        sg.PlayOutcome.DELAYER_WINS: "delayer wins",
        sg.PlayOutcome.INCOMPLETE: "incomplete play",
    }[result.outcome]
    print("outcome: " + tag)
    return 0


def _merged(claim: str, *reports: ver.CampaignReport) -> ver.CampaignReport:
    return ver.CampaignReport(
        claim,
        sum(r.space for r in reports),
        [ce for r in reports for ce in r.counterexamples],
    )


def _theorem_main(n: int, samples: Optional[int] = None, **options) -> ver.CampaignReport:
    if samples is None and "seed" in options:
        raise InputError(f"claim 'theorem-main-n{n}' reads --seed only with --samples")
    space = ver.strategy_space(n)
    if samples is not None and samples > space:
        raise InputError(f"--samples {samples} exceeds the {space} tables at n={n}")
    return ver.verify_theorem_main(n=n, sample=samples, **options)


# The options a theorem-main sweep reads.  --seed is read only with --samples.
SWEEP = ("samples", "seed", "threads", "ce_dir")

# Claim name -> (campaign, the options it reads).  A campaign is called with
# the options the user set, so each default is written once, in the
# signature of the function it calls; theorem-main-n4 alone sets one, its
# sample.  Each campaign looks its function up on ``ver`` when it runs, so a
# function rebound there is the one called.
CLAIMS: dict[str, tuple[Callable[..., ver.CampaignReport], tuple[str, ...]]] = {
    **{
        f"theorem-main-n{n}": (lambda n=n, **o: _theorem_main(n, **o), SWEEP)
        for n in (1, 2, 3)
    },
    "theorem-main-n4": (lambda **o: _theorem_main(4, **{"samples": 100_000, **o}), SWEEP),
    "loop-bound-n3": (lambda: ver.verify_loop_bound(3), ()),
    "small-n": (lambda: _merged("small-n", ver.verify_small_n(1), ver.verify_small_n(2)), ()),
    **{f"subset-n{n}": (lambda n=n: ver.verify_subset_prop(n), ()) for n in (1, 2, 3, 4)},
    "order-axioms": (
        lambda: _merged(
            "order-axioms", ver.verify_order_axioms(2, 2), ver.verify_order_axioms(3, 2)
        ),
        (),
    ),
    "g2-properties": (lambda **o: ver.verify_g2_properties(**o), ("playouts", "seed")),
    "g2prime": (lambda **o: ver.verify_g2prime(**o), ("playouts", "seed")),
    "figures": (lambda: ver.verify_figures(), ()),
    "php-trees": (lambda **o: ver.verify_php_trees(**o), ("samples", "seed")),
    "oracle-equivalence": (lambda **o: ver.verify_oracle_equivalence(**o), ("samples", "seed")),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.claim not in CLAIMS:
        raise InputError(f"unknown claim {args.claim!r}; claims: {', '.join(CLAIMS)}")
    campaign, reads = CLAIMS[args.claim]
    options = {}
    for option, value in vars(args).items():
        if option in ("command", "claim", "no_timing") or value is None:
            continue
        if option not in reads:
            flag = "--" + option.replace("_", "-")
            raise InputError(f"claim {args.claim!r} does not read {flag}")
        options[option] = value
    t0 = time.time()
    report = campaign(**options)
    print(report.line(0.0 if args.no_timing else time.time() - t0))
    for ce in report.counterexamples[:16]:
        print("counterexample:\n" + ce if "\n" in ce else "counterexample: " + ce)
    return 0 if report.ok else 1


def _cmd_order(args: argparse.Namespace) -> int:
    ta = _input(lambda: treemod.parse_tree(args.tree_a.read_text().splitlines()))
    tb = _input(lambda: treemod.parse_tree(args.tree_b.read_text().splitlines()))
    cmp = treemod.tree_compare(ta, tb)
    name = {
        treemod.Ordering.LESS: "Less",
        treemod.Ordering.EQUAL: "Equal",
        treemod.Ordering.GREATER: "Greater",
    }[cmp]
    print(name)
    b = max(
        (max((max(v) for v in t if v), default=0) for t in (ta, tb)),
        default=0,
    ) + 2
    h = max(ta.height, tb.height)
    ea = treemod.ordinal_embed(ta, b, h)
    eb = treemod.ordinal_embed(tb, b, h)
    print(f"embed a: {ea}")
    print(f"embed b: {eb}")
    return 0


def _parse_answers(text: str) -> list[int]:
    """The hole answers of a ``g2sim --answers`` file, whitespace-separated
    integers; a line that holds anything else is refused naming it."""
    answers: list[int] = []
    for line_no, line, parts in sg.file_lines(text):
        try:
            answers.extend(int(p) for p in parts)
        except ValueError as exc:
            raise sg.ParseError(line_no, f"cannot parse {line!r}") from exc
    return answers


def _cmd_g2sim(args: argparse.Namespace) -> int:
    cfg = _input(lambda: LogPower(args.n, args.C))
    tree, strategy = _input(lambda: g2mod.prover_root_ramify(cfg))
    oracle = treemod.TreeOracle.explicit(tree)
    answers = iter(())
    if args.answers:
        answers = iter(_input(lambda: _parse_answers(args.answers.read_text())))

    def delayer(pos: g2mod.G2Position, q: Query):
        options = g2mod.answer_options(q, cfg)
        return options[next(answers, 0) % len(options)]

    result = g2mod.g2_play(cfg, oracle, strategy, delayer, step_cap=10_000)
    sys.stdout.write(g2mod.format_transcript(cfg, result))
    print(f"winner: {result.winner} in {result.steps} steps")
    return 0


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = {
        "analyze": _cmd_analyze,
        "play": _cmd_play,
        "verify": _cmd_verify,
        "order": _cmd_order,
        "g2sim": _cmd_g2sim,
    }[args.command]
    try:
        return command(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
