"""The acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the failure report).  The exhaustive sweeps are the slow ones; everything
else completes in seconds.
"""

import os
import time

from pebblegames.figures import FIGURE_NAMES, example_strategy
from pebblegames.matching import Record
from pebblegames.simple_game import find_loops
from pebblegames import verify as ver


def _line(name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}{(' ' + extra) if extra else ''}")


THREADS = min(2, os.cpu_count() or 1)


def test_criterion_01_theorem_main_n3_exhaustive():
    """All 4**13 strategies Delayer-won for every length (exact)."""
    t0 = time.time()
    report = ver.verify_theorem_main(n=3, threads=THREADS)
    ok = report.ok and report.space == 67_108_864
    _line(
        "criterion 1: theorem main at n=3 (4^13 strategies, 0 counterexamples)",
        ok,
        f"space={report.space} fast_path={report.details['fast_path']} "
        f"sampled={report.details['sampled_crosschecks']} {time.time()-t0:.0f}s",
    )
    assert report.space == 67_108_864
    assert report.counterexamples == []
    assert report.details["fast_path"] == 63_001_680
    assert report.details["sampled_crosschecks"] == 664_445


def test_criterion_01b_theorem_main_n2_control():
    """The sweep must find the small-board Prover wins when they exist."""
    report = ver.verify_theorem_main(n=2)
    paper = ver.prover_small_n(2, 3)
    serialized = ver.format_strategy(paper.with_s(1))
    ok = (not report.ok) and serialized in report.counterexamples
    _line("criterion 1 control: n=2 sweep finds the on-paper Prover table", ok)
    assert not report.ok
    assert serialized in report.counterexamples


def test_criterion_02_oracle_equivalence():
    """Certificate equals brute force for s <= 8 on seeded samples (exact)."""
    t0 = time.time()
    report = ver.verify_oracle_equivalence(samples=10_000, seed=4242)
    _line(
        "criterion 2: certificate/brute-force agreement (10^4 at n=3, 10^3 at n=4)",
        report.ok,
        f"{time.time()-t0:.0f}s",
    )
    assert report.ok, report.counterexamples


def test_criterion_03_small_n():
    """Prover wins every play at (1,2), (2,3), (2,6) (exact)."""
    r1 = ver.verify_small_n(1)
    r2 = ver.verify_small_n(2)
    ok = r1.ok and r2.ok and r2.space == 8 + 64
    _line("criterion 3: small-board Prover wins exhaustively", ok)
    assert ok


def test_criterion_04_subset_prover():
    """The subset-labeled Prover wins all n**(n+1) plays (exact)."""
    r3 = ver.verify_subset_prop(3)
    r4 = ver.verify_subset_prop(4)
    ok = r3.ok and r4.ok and r3.details["plays"] == 81 and r4.details["plays"] == 1024
    _line(
        "criterion 4: subset-pigeon Prover wins exhaustively",
        ok,
        f"plays n=3: {r3.details['plays']}, n=4: {r4.details['plays']}",
    )
    assert ok


def test_criterion_05_order_axioms():
    """Tree-order axioms on every pair and triple and embedding reversal,
    exhaustively (exact)."""
    r_small = ver.verify_order_axioms(2, 2)
    r_large = ver.verify_order_axioms(3, 2)
    ok = r_small.ok and r_large.ok
    m_small, m_large = r_small.details["trees"], r_large.details["trees"]
    _line(
        "criterion 5: tree order axioms + order-reversing embedding",
        ok,
        f"trees: {m_small} and {m_large}, triples: {m_small**3:,} and {m_large**3:,}",
    )
    assert ok, (r_small.counterexamples, r_large.counterexamples)


def test_criterion_06_g2_monotonicity_determinacy():
    """10^4 playouts at n in {3,4,5}, C=2: zero order violations, all halt
    within the instantiated bound (exact)."""
    t0 = time.time()
    report = ver.verify_g2_properties(playouts=10_000, seed=11)
    _line(
        "criterion 6: backtracking-game monotonicity + determinacy",
        report.ok,
        f"max_steps={report.details['max_steps']} {time.time()-t0:.0f}s",
    )
    assert report.ok, report.counterexamples


def test_criterion_07_root_ramify():
    """The unrestricted Prover beats the full Delayer answer tree (exact)."""
    report = ver.verify_g2_properties(playouts=30, seed=1)
    ok = report.ok and report.details["ramify_branches"] > 0
    _line(
        "criterion 7: root-ramify Prover wins every Delayer branch at n=3, C=2",
        ok,
        f"branches={report.details['ramify_branches']}",
    )
    assert ok


def test_criterion_08_g2prime_preservation():
    """Winner preservation through the aux-free encoding on 10^3 plays."""
    t0 = time.time()
    report = ver.verify_g2prime(playouts=1000, seed=12345)
    _line(
        "criterion 8: aux-free translation preserves winners (10^3 plays)",
        report.ok,
        f"{time.time()-t0:.0f}s",
    )
    assert report.ok, report.counterexamples[:4]


def test_criterion_09_figures():
    """Loops of the example table and all shipped figure certificates."""
    loops = find_loops(example_strategy())
    loops_ok = loops == frozenset({Record(2, 0), Record(2, 1), Record(3, 2)})
    report = ver.verify_figures()
    expected = {
        "fig4", "fig5", "fig6", "fig7", "fig9", "fig12", "fig14", "fig15",
        "fig19", "fig21", "fig24", "php5", "php6", "php7", "php10", "php12",
    }
    ok = loops_ok and report.ok and set(FIGURE_NAMES) == expected
    _line(
        "criterion 9: example-table loops + all 16 figure certificates at horizon 60",
        ok,
    )
    assert loops_ok
    assert report.ok, report.counterexamples
    assert set(FIGURE_NAMES) == expected


def test_criterion_10_php_trees():
    """Validity/symmetry on 10^4 builds, the completeness biconditional on
    10^3 tables, and the exhaustive loop bound at n=3."""
    t0 = time.time()
    report = ver.verify_php_trees(samples=10_000, seed=99)
    bound = ver.verify_loop_bound(3)
    ok = report.ok and bound.ok
    _line(
        "criterion 10: php-tree build/biconditional + exhaustive loop bound",
        ok,
        f"{time.time()-t0:.0f}s",
    )
    assert report.ok, report.counterexamples[:4]
    assert bound.ok, bound.counterexamples[:2]
    # Every n = 3 block's union closes within K - 1 steps.  A block walks
    # the 6 candidates on pigeons 0 and 1, whose heads vary inside it, and
    # each of the 6 on pigeons 2 and 3 in the quarter of the blocks where
    # its constant head is its tail: 4,096 * 6 + 6 * 1,024.
    assert bound.details == {"blocks": 4096, "closed_blocks": 4096, "walked_candidates": 30720}
