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
from pathlib import Path
from typing import Callable

from pebblegames.matching import GameSize, LogPower, Query
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
    p_ve.add_argument("--threads", type=_positive_int, default=1)
    p_ve.add_argument("--s-max", type=_positive_int, default=64)
    p_ve.add_argument("--seed", type=int, default=20240901)
    p_ve.add_argument("--playouts", type=_positive_int, help="default: the claim's own")
    p_ve.add_argument("--samples", type=_positive_int, help="default: the claim's own")
    p_ve.add_argument("--fast-path", choices=["on", "off"], default="on")
    p_ve.add_argument("--checkpoint", type=Path, default=None)
    p_ve.add_argument("--ce-dir", type=Path, default=None)
    p_ve.add_argument("--no-timing", action="store_true", help="print seconds=0.000 for reproducible output")
    p_ve.add_argument("--progress", action="store_true")

    p_or = sub.add_parser("order", help="compare two tree files under the tree order")
    p_or.add_argument("tree_a", type=Path)
    p_or.add_argument("tree_b", type=Path)

    p_g2 = sub.add_parser("g2sim", help="simulate the backtracking game")
    p_g2.add_argument("--n", type=int, required=True)
    p_g2.add_argument("--C", type=int, default=2)
    p_g2.add_argument("--strategy", choices=["root-ramify"], default="root-ramify")
    p_g2.add_argument("--answers", type=Path, default=None,
                      help="hole answers consumed left to right; canonical otherwise")
    return parser


def _input(read: Callable[[], object]):
    """``read()`` of input from a file or an argument, where a ``ValueError``
    (a failed decode or parse) means the input is bad, not the program."""
    try:
        return read()
    except ValueError as exc:  # StrategyParseError included
        raise InputError(exc) from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    strat = _input(lambda: sg.parse_strategy(args.strategy.read_text()))
    graph = sg.build_graph(strat)
    print(f"strategy: n={strat.size.n} s={strat.s} init={strat.init}")
    print(f"graph: {len(list(graph.nodes))} nodes, {len(graph.edges())} edges")
    for line in graph.adjacency_lines():
        print("  " + line)
    loops = sorted(sg.find_loops(strat))
    print("loops: " + (" ".join(f"({e.tail},{e.label})" for e in loops) if loops else "none"))
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
    question = strat.init
    for i, rec in enumerate(result.records, start=1):
        print(f"round {i}: question {rec.pigeon} answer {rec.hole}")
        question = strat.next_question(rec)
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
        sum(r.seconds for r in reports),
    )


def _theorem_main(args: argparse.Namespace, n: int) -> ver.CampaignReport:
    return ver.verify_theorem_main(
        n=n,
        s_max=args.s_max,
        threads=args.threads,
        fast_path=args.fast_path == "on",
        checkpoint=args.checkpoint,
        ce_dir=args.ce_dir,
        progress=args.progress,
        sample=args.samples if n > 3 else None,
        seed=args.seed,
    )


# Claim name -> (campaign, its values for the options left unset).  Each
# campaign looks its function up on ``ver`` when it runs, so a function
# rebound there is the one called.
CLAIMS: dict[str, tuple[Callable[[argparse.Namespace], ver.CampaignReport], dict]] = {
    **{f"theorem-main-n{n}": (lambda a, n=n: _theorem_main(a, n), {}) for n in (1, 2, 3)},
    "theorem-main-n4": (lambda a: _theorem_main(a, 4), {"samples": 100_000}),
    "loop-bound-n3": (lambda a: ver.verify_loop_bound(3, progress=a.progress), {}),
    "small-n": (lambda a: _merged("small-n", ver.verify_small_n(1), ver.verify_small_n(2)), {}),
    **{f"subset-n{n}": (lambda a, n=n: ver.verify_subset_prop(n), {}) for n in (1, 2, 3, 4)},
    "order-axioms": (
        lambda a: _merged(
            "order-axioms",
            ver.verify_order_axioms(2, 2),
            ver.verify_order_axioms(3, 2, seed=a.seed),
        ),
        {},
    ),
    "g2-properties": (
        lambda a: ver.verify_g2_properties(playouts=a.playouts, seed=a.seed),
        {"playouts": 10_000},
    ),
    "g2prime": (
        lambda a: ver.verify_g2prime(plays=a.playouts, seed=a.seed),
        {"playouts": 1000},
    ),
    "figures": (lambda a: ver.verify_figures(), {}),
    "php-trees": (
        lambda a: ver.verify_php_trees(build_samples=a.samples, seed=a.seed),
        {"samples": 10_000},
    ),
    "oracle-equivalence": (
        lambda a: ver.verify_oracle_equivalence(
            n3_samples=a.samples, n4_samples=max(1, a.samples // 10), seed=a.seed
        ),
        {"samples": 10_000},
    ),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.claim not in CLAIMS:
        raise InputError(f"unknown claim {args.claim!r}; claims: {', '.join(CLAIMS)}")
    campaign, defaults = CLAIMS[args.claim]
    for option, value in defaults.items():
        if getattr(args, option) is None:
            setattr(args, option, value)
    report = campaign(args)
    print(report.line(timing=not args.no_timing))
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


def _cmd_g2sim(args: argparse.Namespace) -> int:
    cfg = _input(lambda: LogPower(args.n, args.C))
    tree, strategy = _input(lambda: g2mod.prover_root_ramify(args.n, cfg))
    oracle = treemod.TreeOracle.explicit(tree)
    answers: list[int] = []
    if args.answers:
        answers = _input(lambda: [int(x) for x in args.answers.read_text().split()])
    size = GameSize(cfg.n)
    pointer = {"i": 0}

    def delayer(pos: g2mod.G2Position, q: Query):
        from pebblegames.matching import minimal_covers

        options = sorted(minimal_covers(q, None, size), key=lambda m: m.entries)
        if pointer["i"] < len(answers):
            pick = answers[pointer["i"]] % len(options)
            pointer["i"] += 1
        else:
            pick = 0
        return options[pick]

    result = g2mod.g2_play(cfg, oracle, strategy, delayer, step_cap=10_000)
    sys.stdout.write(result.transcript.format())
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
