#!/usr/bin/env python3
"""Verification benchmark: how fast, and in how little memory, the artifact's
claims can be re-checked.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload sweep-n3 --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
Each workload repeats one round of campaign calls through the public entry
points (``verify.verify_*`` and ``cli.run``) until ``--seconds`` have passed
(at least three rounds), checks every verdict, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed.  With ``--trace 1`` every round runs untraced and then
traced on the same inputs; the metrics are the per-layer ones, taken from
spans recorded around the package's functions (see ``spans.py``).  See
README.md in this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The program is measured single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import spans  # noqa: E402  (sits next to this file)

# Sizes of one round.  Changing any of them changes what is measured.
N3_SAMPLE = 1 << 19
N4_SAMPLE = 1 << 17
LOOP_LIMIT = 1 << 20
CLAIMS = [
    ("oracle-equivalence", ["--samples", "1250"]),
    ("php-trees", ["--samples", "1250"]),
    ("g2-properties", ["--playouts", "1250"]),
    ("g2prime", ["--playouts", "250"]),
    ("order-axioms", []),
    ("figures", []),
    ("small-n", []),
    ("subset-n4", []),
]
CLAIMS_EXPECTED = HERE / "claims_expected.txt"
MIN_ROUNDS = 3
# Set-up is timed this many times before the first round and after every
# round, so that its samples span the run like the rounds do.
SETUP_PER_ROUND = 2
SETUP_CODE = (
    "from pebblegames import verify\n"
    "verify.board_tables(3)\n"
    "verify.board_tables(4)\n"
    "print('ready', flush=True)\n"
)
# The full n=3 campaign dispatched 62,995,648 tables by the fast path out of
# the 67,108,864 - 671,089 tables not held back for its cross-check sample.
FULL_CAMPAIGN_FAST_SHARE = 62_995_648 / (67_108_864 - 671_089)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}
ROUTES = ("fast_path", "repeat_certified", "failed", "uncertified")
TRACED = [
    ("verify", "verify_theorem_main"),
    ("verify", "verify_loop_bound"),
    ("verify", "certify_batch"),
    ("verify", "decode_batch"),
    ("verify", "board_tables"),
    ("verify", "verify_oracle_equivalence"),
    ("verify", "verify_php_trees"),
    ("verify", "verify_g2_properties"),
    ("verify", "verify_g2prime"),
    ("verify", "verify_order_axioms"),
    ("verify", "verify_figures"),
    ("verify", "verify_small_n"),
    ("verify", "verify_subset_prop"),
    ("simple_game", "delayer_wins_lengths"),
    ("simple_game", "brute_force_delayer_wins"),
    ("simple_game", "all_canonical_plays"),
    ("simple_game", "play_simplified"),
    ("php_tree", "build_php_tree"),
    ("php_tree", "validate_php_tree"),
    ("php_tree", "is_symmetric"),
    ("g2", "random_playout"),
    ("g2", "exhaust_delayer"),
    ("g2", "g2_play"),
    ("g2prime", "to_g2prime"),
    ("g2prime", "g2prime_play"),
    ("trees", "tree_compare"),
    ("trees", "ordinal_embed"),
    ("figures", "load_figure"),
    ("matching", "minimal_covers"),
]
PER_LAYER = [
    "verify.certify_batch.s",
    "verify.certify_batch.self_s",
    "verify.certify_batch.calls",
    "verify.decode_batch.s",
    *(f"verify.route.{r}" for r in ROUTES),
    "verify.route.fast_share",
    "verify.gate.s",
    "verify.verify_theorem_main.self_s",
    "verify.verify_loop_bound.self_s",
    "verify.board_tables.s",
    "simple_game.delayer_wins_lengths.s",
    "simple_game.delayer_wins_lengths.calls",
    "simple_game.brute_force_delayer_wins.s",
    "simple_game.brute_force_delayer_wins.calls",
    "simple_game.all_canonical_plays.s",
    "simple_game.play_simplified.s",
    "php_tree.build_php_tree.s",
    "php_tree.validate_php_tree.s",
    "php_tree.is_symmetric.s",
    "g2.random_playout.s",
    "g2.exhaust_delayer.s",
    "g2.g2_play.s",
    "g2prime.to_g2prime.s",
    "g2prime.g2prime_play.s",
    "trees.tree_compare.s",
    "trees.tree_compare.calls",
    "trees.ordinal_embed.s",
    "figures.load_figure.s",
    "matching.minimal_covers.s",
    "matching.minimal_covers.calls",
    *(f"cli.claim.{claim}.s" for claim, _ in CLAIMS),
    "trace.overhead_ratio",
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_package():
    if not (SRC / "pebblegames" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import pebblegames
    from pebblegames import cli, verify

    if Path(pebblegames.__file__).resolve().parent != SRC / "pebblegames":
        raise BenchError(f"imported pebblegames from {pebblegames.__file__}, not {SRC}")
    return numpy, cli, verify


def machine_facts(numpy) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def time_setup() -> float:
    """Time from starting a fresh interpreter until the verify module is
    imported and both board tables are built."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE, env=env, cwd=ROOT
    ) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise BenchError(f"set-up process failed with code {proc.returncode}")
    return t1 - t0


@dataclass
class Round:
    wall: float  # the round's campaign calls
    ops: int  # operations the throughput counts
    ops_time: float  # time of the calls those operations went through
    attempted: int
    failed: int
    verdict: tuple  # must agree between the untraced and traced run of a round
    fast_path: Optional[int] = None  # sampled tables the fast path took


class Sweep:
    """One sampled ``verify_theorem_main`` at board ``n``, then the exhaustive
    ``n=2`` sweep as a negative control."""

    def __init__(self, verify, n: int, sample: int) -> None:
        self.verify, self.n, self.sample = verify, n, sample
        # The control's reference comes from the scalar certificate, not the
        # batch engine under test.
        tables = (verify.index_to_strategy(i, 2) for i in range(verify.strategy_space(2)))
        self.control = {
            verify.format_strategy(t)
            for t in tables
            if not verify.delayer_wins_lengths(t, s_max=64).wins_all()
        }
        paper = verify.format_strategy(verify.prover_small_n(2, 3).with_s(1))
        if paper not in self.control:
            raise BenchError("scalar certificate does not list the on-paper n=2 Prover table")
        print(f"n=2 control: {len(self.control)} Prover-won tables expected, paper table among them")

    def run(self, seed: int) -> Round:
        ver = self.verify
        space2 = ver.strategy_space(2)
        attempted = self.sample + space2
        t0 = time.perf_counter()
        try:
            rep = ver.verify_theorem_main(n=self.n, sample=self.sample, seed=seed)
            t1 = time.perf_counter()
            ctl = ver.verify_theorem_main(n=2)
            t2 = time.perf_counter()
        except Exception as exc:  # a campaign that raises fails all its tables
            print(f"error: sweep raised {exc!r}")
            return Round(0.0, self.sample, 0.0, attempted, attempted, ("raised",))
        got = set(ctl.counterexamples)
        # Any counterexample at n >= 3 (uncertified rows included) is a
        # failure; at n=2 every table whose verdict differs from the scalar
        # certificate is one.
        failed = len(rep.counterexamples) + len(got ^ self.control)
        fast = rep.details.get("fast_path")
        if fast is not None:
            print(
                f"route n={self.n} seed={seed}: fast_share={fast / self.sample:.4f} "
                f"(full n=3 campaign {FULL_CAMPAIGN_FAST_SHARE:.4f})"
            )
        return Round(
            wall=t2 - t0,
            ops=self.sample,
            ops_time=t1 - t0,
            attempted=attempted,
            failed=failed,
            verdict=(tuple(rep.counterexamples), fast, tuple(ctl.counterexamples)),
            fast_path=fast,
        )


class LoopBound:
    """``verify_loop_bound(3, limit=LOOP_LIMIT)``.  The public API sweeps only
    the index prefix ``[0, limit)``, so the input is fixed, not sampled."""

    def __init__(self, verify) -> None:
        self.verify = verify

    def run(self, seed: int) -> Round:
        t0 = time.perf_counter()
        try:
            rep = self.verify.verify_loop_bound(3, limit=LOOP_LIMIT)
        except Exception as exc:
            print(f"error: loop-bound sweep raised {exc!r}")
            return Round(0.0, LOOP_LIMIT, 0.0, LOOP_LIMIT, LOOP_LIMIT, ("raised",))
        wall = time.perf_counter() - t0
        failed = len(rep.counterexamples) + abs(rep.space - LOOP_LIMIT)
        return Round(wall, LOOP_LIMIT, wall, LOOP_LIMIT, failed, tuple(rep.counterexamples))


REPORT_LINE = re.compile(r"claim=\S+ space=(\d+) counterexamples=(\d+) seconds=0\.000$")


class Claims:
    """``cli.run(["verify", claim, "--no-timing", ...])`` for each claim; an
    operation is one unit of the report's ``space``.  The claims run on the
    command line's default seeds, as users run them: the cost of a sampled
    claim depends on its sample, which at these sizes would move the round's
    time by more than the benchmark's bounds from seed to seed."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.expected = CLAIMS_EXPECTED.read_text().splitlines()
        if len(self.expected) != len(CLAIMS):
            raise BenchError(f"{CLAIMS_EXPECTED.name} does not match the claim list")
        self.tracer: Optional[spans.Tracer] = None

    def run(self, seed: int) -> Round:
        attempted = failed = 0
        outputs = []
        t0 = time.perf_counter()
        for (claim, extra), expected in zip(CLAIMS, self.expected):
            argv = ["verify", claim, "--no-timing", *extra]
            buf = io.StringIO()
            span = self.tracer.span(f"cli.claim.{claim}") if self.tracer else contextlib.nullcontext()
            try:
                with span, contextlib.redirect_stdout(buf):
                    code = self.cli.run(argv)
            except Exception as exc:
                code = f"raised {exc!r}"
            out = buf.getvalue()
            outputs.append((code, out))
            m = REPORT_LINE.match(out.splitlines()[0] if out else "")
            planned = int(REPORT_LINE.match(expected).group(1))
            if m is None or code not in (0, 1):
                attempted += planned
                failed += planned
                print(f"error: claim {claim} gave code {code} and output {out!r}")
                continue
            space, ces = int(m.group(1)), int(m.group(2))
            attempted += space
            failed += ces
            if out != expected + "\n":
                # The --no-timing report must be byte-identical on every run.
                failed += max(1, space - ces)  # the whole claim counts as failed
                print(f"error: claim {claim} printed {out!r}, expected {expected!r}")
        wall = time.perf_counter() - t0
        return Round(wall, attempted, wall, attempted, failed, tuple(outputs))


def make_workload(name: str, verify, cli):
    if name == "sweep-n3":
        return Sweep(verify, 3, N3_SAMPLE)
    if name == "sweep-n4":
        return Sweep(verify, 4, N4_SAMPLE)
    if name == "loop-bound":
        return LoopBound(verify)
    if name == "claims":
        return Claims(cli)
    raise BenchError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Per-layer numbers from one traced round.


def route_counts(bound, res) -> dict:
    """Route counts of a ``BatchResult``; a field the result lacks reads 0."""

    def count(field: str, test=lambda a: a) -> int:
        mask = getattr(res, field, None)
        return int(test(mask).sum()) if mask is not None else 0

    fast = count("fast_path")
    return {
        "rows": len(bound.arguments["indices"]),
        "fast_path": fast,
        # Fast-path tables are wins; every other win was repeat-certified.
        "repeat_certified": count("wins_all") - fast,
        "failed": count("first_fail", lambda a: a > 0),
        "uncertified": count("uncertified"),
    }


NOTES = {
    "verify.verify_theorem_main": lambda bound, res: {"n": bound.arguments["n"]},
    "verify.certify_batch": route_counts,
}


def sweep_layers(sp: list[spans.Span], kids: list[list[int]]) -> tuple[float, Counter]:
    """The gate's time and the sample's route counts, summed over the sampled
    boards (``n >= 3``).  The sample's ``certify_batch`` calls are the
    campaign's largest ones; the gate is every child span that ended before
    the first of them began."""
    gate = 0.0
    routes: Counter = Counter()
    for i, s in enumerate(sp):
        if s.name != "verify.verify_theorem_main" or s.info is None or s.info["n"] < 3:
            continue
        batches = [k for k in kids[i] if sp[k].name == "verify.certify_batch" and sp[k].info]
        if not batches:
            continue
        rows = max(sp[k].info["rows"] for k in batches)
        sample = [k for k in batches if sp[k].info["rows"] == rows]
        first = min(sp[k].start for k in sample)
        gate += sum(sp[k].end - sp[k].start for k in kids[i] if sp[k].end <= first)
        for k in sample:
            routes.update(sp[k].info)
    return gate, routes


def layer_metrics(sp: list[spans.Span]) -> tuple[dict, Counter]:
    kids = spans.children(sp)
    tot = spans.totals(sp)
    gate, routes = sweep_layers(sp, kids)
    out = {}
    for metric in PER_LAYER:
        if metric.startswith("verify.route."):
            key = metric.rsplit(".", 1)[1]
            if key == "fast_share":
                out[metric] = routes["fast_path"] / routes["rows"] if routes["rows"] else 0.0
            else:
                out[metric] = routes[key]
        elif metric == "verify.gate.s":
            out[metric] = gate
        elif metric != "trace.overhead_ratio":
            name, field = metric.rsplit(".", 1)
            out[metric] = getattr(tot[name], field) if name in tot else 0
    return out, routes


def traced_round(workload, seed: int, plain: Round) -> tuple[Round, dict]:
    tracer = spans.Tracer()
    patches = spans.install(tracer, TRACED, NOTES)
    if isinstance(workload, Claims):
        workload.tracer = tracer
    try:
        traced = workload.run(seed)
    finally:
        if isinstance(workload, Claims):
            workload.tracer = None
        spans.restore(patches)
    left = spans.leftovers(patches)
    if left:
        raise BenchError(f"wrapped attributes not restored: {left}")
    layers, routes = layer_metrics(tracer.spans())
    layers["trace.overhead_ratio"] = traced.wall / plain.wall if plain.wall else 0.0
    # The trace must not change what the program decides.
    mismatch = traced.verdict != plain.verdict
    if plain.fast_path is not None:
        rows = sum(routes[r] for r in ROUTES)
        mismatch |= routes["fast_path"] != plain.fast_path or rows != routes["rows"]
    if mismatch:
        print(f"error: traced round seed={seed} disagrees with the untraced round")
        traced.failed += max(1, traced.attempted - traced.failed)
    return traced, layers


# ---------------------------------------------------------------------------


def measure(workload, args) -> tuple[list[Round], list[dict], list[float]]:
    rounds: list[Round] = []
    layers: list[dict] = []
    setup: list[float] = []
    if not args.trace:
        time_setup()  # fills the bytecode cache; not counted
        setup += [time_setup() for _ in range(SETUP_PER_ROUND)]
    t_start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - t_start < args.seconds:
        seed = args.seed * 1000 + r
        plain = workload.run(seed)
        rounds.append(plain)
        print(
            f"round {r} seed={seed}: wall_s={plain.wall:.4f} "
            f"ops_per_s={plain.ops / plain.ops_time if plain.ops_time else 0:.1f} "
            f"failed={plain.failed}/{plain.attempted}"
        )
        if args.trace:
            traced, lay = traced_round(workload, seed, plain)
            rounds.append(traced)
            layers.append(lay)
        else:
            setup += [time_setup() for _ in range(SETUP_PER_ROUND)]
        r += 1
    return rounds, layers, setup


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        numpy, cli, verify = load_package()
        print("machine " + json.dumps(machine_facts(numpy)))
        workload = make_workload(args.workload, verify, cli)
        rounds, layers, setup = measure(workload, args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(x.attempted for x in rounds)
    failed = sum(x.failed for x in rounds)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(lay[name] for lay in layers), "unit": unit_of(name)}
            for name in PER_LAYER
        }
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(x.wall for x in rounds),
            "ops_per_s": statistics.median(
                x.ops / x.ops_time if x.ops_time else 0.0 for x in rounds
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_rate": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith(".calls") or metric.startswith("verify.route."):
        return "ratio" if metric.endswith("fast_share") else "count"
    return "ratio" if metric == "trace.overhead_ratio" else "s"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
