"""A standing catalogue of mutants: each check proves what it catches.

A row names a module, a source fragment and its replacement, the check that
must refuse the mutant with the message it gives, and the checks the mutant
is known to survive, each with the ROADMAP item that will close that gap,
or why that check cannot see a mutant that another check refuses.
A check names the module it takes, which must be the row's module.
An equivalent mutant has no refusing check, and the reason it survives is
recorded in place of an item.  A mutant is built by executing the module's
patched source in a fresh module object; no file is written.  A fragment
that no longer occurs exactly once in the source fails its row, so the
catalogue follows the code; a check that starts to refuse a mutant it is
recorded to survive fails its row too, so a gap that closes is noticed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import types
from typing import Callable, Iterator, Optional

import numpy as np
import pytest

from pebblegames import g2 as g2mod
from pebblegames import g2prime as g2p
from pebblegames import php_tree as phpmod
from pebblegames import simple_game as sg
from pebblegames import trees as treemod
from pebblegames import verify as ver
from pebblegames.matching import LogPower
from test_verify import (
    _block_violators,
    _breaks_loop_bound,
    _cyclic_compare,
    _held_digit_counts,
    _order_axiom_failures_by_loops,
    _restricted_kernel_that_differs,
    _step1_loop_exit,
    _uneven_held_digit,
    _window_0_trace,
    WINDOW_0_TRACE,
)


@contextlib.contextmanager
def _mutant(module: types.ModuleType, fragment: str, replacement: str) -> Iterator[types.ModuleType]:
    """``module`` with its one ``fragment`` replaced, registered in
    ``sys.modules`` under a private name while it is in use, since
    ``dataclasses`` looks a class's module up there."""
    source = inspect.getsource(module)
    found = source.count(fragment)
    assert found == 1, f"fragment occurs {found} times in {module.__name__}: {fragment!r}"
    name = "_mutant_of_" + module.__name__.replace(".", "_")
    mutant = types.ModuleType(name)
    sys.modules[name] = mutant
    try:
        patched = source.replace(fragment, replacement)
        exec(compile(patched, f"<mutant of {module.__name__}>", "exec"), mutant.__dict__)
        yield mutant
    finally:
        del sys.modules[name]


# A check takes a module with the interface of the module it names in
# ``CHECKS`` and returns why it refuses it, or None when it accepts it.


def _step1_lemma_at_n2(mod) -> Optional[str]:
    """With the walk stopped after its first step, the fast path over the
    whole n = 2 space must be the step-1 loop lemma, table by table."""
    idxs = np.arange(ver.strategy_space(2), dtype=np.uint64)
    lemma = np.array([_step1_loop_exit(ver.index_to_strategy(int(i), 2)) for i in idxs])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mod, "T_LIMIT", 1)
        got = mod.certify_batch(idxs, mod.board_tables(2)).fast_path
    mismatched = int((got != lemma).sum())
    return f"{mismatched} tables mismatch" if mismatched else None


def _gate(n: int) -> Callable[..., Optional[str]]:
    def check(mod) -> Optional[str]:
        try:
            mod._oracle_gate(n)
        except AssertionError as refusal:
            return str(refusal)
        return None

    return check


@contextlib.contextmanager
def _witnesses_of(mod) -> Iterator[None]:
    """``verify`` with the certificate and the DFS oracle of ``mod``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ver, "delayer_wins_lengths", mod.delayer_wins_lengths)
        mp.setattr(ver, "brute_force_delayer_wins", mod.brute_force_delayer_wins)
        yield


def _gate_of_game(n: int) -> Callable[..., Optional[str]]:
    """The oracle gate at board ``n``, on the witnesses of the module it
    takes."""
    gate = _gate(n)

    def check(mod) -> Optional[str]:
        with _witnesses_of(mod):
            return gate(ver)

    return check


def _oracle_equivalence_claim(mod) -> Optional[str]:
    """The certificate-against-DFS claim at 100 samples, on the witnesses of
    ``mod``: its first message."""
    with _witnesses_of(mod):
        bad = ver.verify_oracle_equivalence(samples=100).counterexamples
    return bad[0] if bad else None


def _planted_intransitive_order(mod) -> Optional[str]:
    """Under an intransitive comparison, the order claim at b = 2, h = 2 must
    report the loop reference's messages."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(treemod, "tree_compare", _cyclic_compare)
        got = mod.verify_order_axioms(2, 2).counterexamples
        want = _order_axiom_failures_by_loops(2, 2)
    return None if got == want else "messages differ from the loop reference"


def _batch_results_at_n1_n2(mod) -> Optional[str]:
    """Every array of ``certify_batch``'s result over the whole n = 1 and
    n = 2 spaces, held back and not, must be ``verify``'s."""
    for n in (1, 2):
        idxs = np.arange(ver.strategy_space(n), dtype=np.uint64)
        for held in (None, np.ones(len(idxs), dtype=bool)):
            got = vars(mod.certify_batch(idxs, mod.board_tables(n), sample_mask=held))
            want = vars(ver.certify_batch(idxs, ver.board_tables(n), sample_mask=held))
            for array, value in want.items():
                if not np.array_equal(got[array], value):
                    return f"{array} differs at n={n}"
    return None


def _trace_n3_window(mod) -> Optional[str]:
    """The (route, closed_at) histogram of the sweep's first n = 3 job must
    be the one ``test_the_trace_of_the_first_n3_window_is_pinned`` pins: it
    moves when one table leaves by another route or at another step."""
    got = _window_0_trace(mod)
    bins = got.keys() | WINDOW_0_TRACE.keys()
    moved = sum(abs(got.get(b, 0) - WINDOW_0_TRACE.get(b, 0)) for b in bins) // 2
    return f"{moved} tables moved" if moved else None


@functools.cache
def _loop_bound_violators_at_n4() -> tuple[np.ndarray, list[bool]]:
    """The 4,096 seeded n = 4 tables of
    ``test_loop_bound_batch_matches_scalar_witness`` and the scalar witness's
    verdicts on them, computed once per session."""
    idxs = np.random.default_rng(5).choice(ver.strategy_space(4), 4096, replace=False)
    expected = [_breaks_loop_bound(ver.index_to_strategy(int(i), 4)) for i in idxs]
    return idxs.astype(np.uint64), expected


def _loop_bound_witness_at_n4(mod) -> Optional[str]:
    """The loop-bound engine must flag exactly the tables that the scalar
    witness flags."""
    idxs, expected = _loop_bound_violators_at_n4()
    got = mod.loop_bound_batch(idxs, mod.board_tables(4)).tolist()
    return None if got == expected else f"{sum(got)} found, {sum(expected)} expected"


def _loop_bound_blocks_at_n4(mod) -> Optional[str]:
    """The block route must find the 40, 185, 125, 75 and 125 violators of
    the aligned n = 4 blocks that hold the witness tables' violators; each
    block walks only some of its candidates, and
    ``test_loop_bound_blocks_find_the_n4_violators`` checks these counts
    against the scalar witness."""
    idxs, expected = _loop_bound_violators_at_n4()
    size = 5 ** mod.board_tables(4).k
    for v, want in zip(idxs[expected], (40, 185, 125, 75, 125)):
        j = int(v) // size
        _, got = _block_violators(mod, 4, j)
        found = 0 if got is None else len(got)
        if found != want:
            return f"{found} of {want} violators in block {j}"
    return None


def _hold_back_digits_at_n3(mod) -> Optional[str]:
    """The tables that the sweep's first n = 3 job holds back must ask each
    pigeon first, and give each table digit that varies in the window every
    value, about equally often."""
    return _uneven_held_digit(_held_digit_counts(mod, (0, 1 << 18, None, 3))[:9])


def _loop_bound_claim(n: int) -> Callable[..., Optional[str]]:
    def check(mod) -> Optional[str]:
        bad = mod.verify_loop_bound(n, limit=1 << 16).counterexamples
        return f"{len(bad)} counterexamples" if bad else None

    return check


def _loop_bound_closure_at_n3(mod) -> Optional[str]:
    """Every block of the n = 3 claim at ``limit=2^16`` must close within
    K - 1 steps, and so be decided without a hit test."""
    details = mod.verify_loop_bound(3, limit=1 << 16).details
    closed, blocks = details["closed_blocks"], details["blocks"]
    return None if (closed, blocks) == (4, 4) else f"{closed} of {blocks} blocks closed"


def _loop_bound_walked_at_n3(mod) -> Optional[str]:
    """The n = 3 claim at ``limit=2^16`` must walk 25 candidates over its 4
    blocks: the 6 that vary in each block, and the one block in which a
    constant candidate is a loop."""
    walked = mod.verify_loop_bound(3, limit=1 << 16).details["walked_candidates"]
    return None if walked == 25 else f"{walked} candidates walked, 25 expected"


def _walk_restrict_at_n3(mod) -> Optional[str]:
    """Each n = 3 walk restricted to the odd candidates, or to a seeded half
    of them without candidate 0, must step and hit as the rows of the full
    walk do, on seeded planes: a term may read no other candidate's slot."""
    bt = mod.board_tables(3)
    rng = np.random.default_rng(32)
    E = len(bt.loop_plane)
    tables = rng.integers(0, 2**64, ((E + 1) * 4 + 1, 2), dtype=np.uint64)
    tables[-1] = 0
    masks = (np.arange(E) % 2 == 1, (rng.random(E) < 0.5) & (np.arange(E) > 0))
    for walk in (bt.certify, bt.loop):
        state = rng.integers(0, 2**64, (len(walk.slot_tail), 2), dtype=np.uint64)
        for kept in masks:
            kernel = _restricted_kernel_that_differs(walk, kept, tables, state)
            if kernel is not None:
                return f"a restricted {kernel} differs"
    return None


def _php_trees_claim(mod) -> Optional[str]:
    """The php-tree claim at 10 samples, its planted tables included."""
    bad = mod.verify_php_trees(samples=10).counterexamples
    return bad[0] if bad else None


def _php_trees_claim_of_tree(mod) -> Optional[str]:
    """The php-tree claim at 10 samples, on the trees of ``mod``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ver, "phpmod", mod)
        return _php_trees_claim(ver)


def _php_biconditional_at_n2(mod) -> Optional[str]:
    """A complete php-tree must mean no canonical win at any window length,
    and an incomplete one a canonical win at every one, over the whole n = 2
    space."""
    broken = 0
    for idx in range(ver.strategy_space(2)):
        strat = ver.index_to_strategy(idx, 2)
        wins = mod._canonical_wins(strat).values()
        complete = ver.phpmod.is_complete(ver.phpmod.build_php_tree(strat))
        broken += any(wins) if complete else not all(wins)
    return f"{broken} tables break the biconditional" if broken else None


def _order_claim_at_b2_h2(mod) -> Optional[str]:
    """The order claim at b = 2, h = 2 on the trees of ``mod``: its first
    message."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ver, "treemod", mod)
        bad = ver.verify_order_axioms(2, 2).counterexamples
    return bad[0] if bad else None


def _subset_claims(mod) -> Optional[str]:
    """The subset claims at n = 1 to 4: every message, with its n."""
    bad = [(n, ce) for n in (1, 2, 3, 4) for ce in mod.verify_subset_prop(n).counterexamples]
    return "; ".join(f"n={n}: {ce}" for n, ce in bad) or None


def _g2_properties_claim(mod) -> Optional[str]:
    """The backtracking-game claim at 3 playouts, on the game of ``mod``: its
    first message."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ver, "g2mod", mod)
        bad = ver.verify_g2_properties(playouts=3).counterexamples
    return bad[0] if bad else None


def _root_ramify_at_n2(mod) -> Optional[str]:
    """The root-ramify Prover of ``mod`` must win every Delayer branch at
    n = 2."""
    cfg = LogPower(2, 2)
    tree, strategy = mod.prover_root_ramify(cfg)
    all_win, _, _ = mod.exhaust_delayer(cfg, treemod.TreeOracle.explicit(tree), strategy)
    return None if all_win else "root-ramify lost some branch at n=2"


def _g2prime_claim_of_verify(mod) -> Optional[str]:
    """The G2' claim at 250 plays, as ``mod`` runs it: its first message."""
    bad = mod.verify_g2prime(playouts=250).counterexamples
    return bad[0] if bad else None


def _g2prime_claim(mod) -> Optional[str]:
    """The G2' claim at 250 plays, on the encoding of ``mod``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ver, "g2p", mod)
        return _g2prime_claim_of_verify(ver)


# name -> (the module the check takes, the check)
CHECKS = {
    "step1-lemma-n2": (ver, _step1_lemma_at_n2),
    "oracle-gate-n2": (ver, _gate(2)),
    "oracle-gate-n3": (ver, _gate(3)),
    "oracle-gate-n4": (ver, _gate(4)),
    "oracle-gate-n2-game": (sg, _gate_of_game(2)),
    "oracle-gate-n3-game": (sg, _gate_of_game(3)),
    "oracle-gate-n4-game": (sg, _gate_of_game(4)),
    "oracle-equivalence-claim": (sg, _oracle_equivalence_claim),
    "planted-intransitive-order": (ver, _planted_intransitive_order),
    "batch-results-n1-n2": (ver, _batch_results_at_n1_n2),
    "trace-n3-window": (ver, _trace_n3_window),
    "hold-back-digits-n3": (ver, _hold_back_digits_at_n3),
    "loop-bound-witness-n4": (ver, _loop_bound_witness_at_n4),
    "loop-bound-blocks-n4": (ver, _loop_bound_blocks_at_n4),
    "loop-bound-claim-n3": (ver, _loop_bound_claim(3)),
    "loop-bound-claim-n4": (ver, _loop_bound_claim(4)),
    "loop-bound-closure-n3": (ver, _loop_bound_closure_at_n3),
    "loop-bound-walked-n3": (ver, _loop_bound_walked_at_n3),
    "walk-restrict-n3": (ver, _walk_restrict_at_n3),
    "php-trees-claim": (ver, _php_trees_claim),
    "php-trees-claim-of-tree": (phpmod, _php_trees_claim_of_tree),
    "php-biconditional-n2": (ver, _php_biconditional_at_n2),
    "order-claim-b2-h2": (treemod, _order_claim_at_b2_h2),
    "subset-claims": (ver, _subset_claims),
    "g2-properties-claim": (g2mod, _g2_properties_claim),
    "root-ramify-n2": (g2mod, _root_ramify_at_n2),
    "g2prime-claim": (g2p, _g2prime_claim),
    "g2prime-claim-of-verify": (ver, _g2prime_claim_of_verify),
}

RAMIFY_LOST = "root-ramify lost some branch at n=3"
# The gate holds every table back, so it compares each exit with the
# certificate's only on the repeat route.  A table's route and exit step are
# invariant under relabelling, so a relabelled comparison with the fast path
# on, or the pinned trace of one window, sees the wiring faults of the loop
# and hit planes at n >= 3.
WIRING_AT_N3_N4 = {
    check: "item 17: relabelling invariance of each table's route and exit step"
    for check in ("oracle-gate-n3", "oracle-gate-n4")
}
# At n >= 3 every length of every table is won, so a witness that answers
# "won" more often than it should still agrees with the other one.
WITNESS_N2 = ("oracle-gate-n2-game", "oracle gate: certificate mismatch at index 1182, s=3")
WITNESS_AT_N3_N4 = {
    check: "item 9: compare which final records win, not whether Delayer wins"
    for check in ("oracle-gate-n3-game", "oracle-gate-n4-game", "oracle-equivalence-claim")
}
# At n = 2 the root-ramify Prover wins without any one of the clauses that
# these rows delete, so only the claim's n = 3 leg shows that each is needed.
RAMIFY_N2 = {"root-ramify-n2": "not a gap: n = 2 needs no such clause; n = 3 does"}

# name -> (module, fragment, replacement, (refusing check, its message) or
# None, {check the mutant survives: the ROADMAP item that closes the gap, or
# why the mutant is equivalent}).
MUTANTS = {
    "first-step-ignores-loop-plane": (
        ver,
        "        loops = planes[bt.loop_plane] & ~_pack(held[lo : lo + TABLE_BLOCK])\n",
        "        loops = ~_pack(held[lo : lo + TABLE_BLOCK])\n",
        ("step1-lemma-n2", "432 tables mismatch"),
        {
            # The gate holds every row back, so it never runs the fast path.
            "oracle-gate-n2": "item 1: a negative control with the sweep's hold-back",
            "oracle-gate-n3": "items 1, 14 and 17: the fast path on during the gate",
        },
    ),
    "engine-reports-every-table-won": (
        ver,
        "    return BatchResult(route, closed_at)\n",
        "    return BatchResult(route | LOOP, closed_at)\n",
        ("oracle-gate-n2", "oracle gate: engine mismatch at index 1182"),
        {
            # Every table at n >= 3 is won, and a won route keeps its value
            # and its step, so every exit compared agrees.
            "oracle-gate-n3": "not a gap: at n >= 3 no table fails, and oracle-gate-n2 refuses it",
            "oracle-gate-n4": "not a gap: at n >= 3 no table fails, and oracle-gate-n2 refuses it",
        },
    ),
    "loop-plane-one-pigeon-off": (
        ver,
        "        loop_plane=(e + 1) * pigeons + e // n,\n",
        "        loop_plane=(e + 1) * pigeons + (e // n + 1) % pigeons,\n",
        ("step1-lemma-n2", "1539 tables mismatch"),
        {
            # The gate holds every row back, so it never runs the fast path.
            "oracle-gate-n2": "item 1: a negative control with the sweep's hold-back",
            **WIRING_AT_N3_N4,
        },
    ),
    "hit-plane-with-the-wrong-tail": (
        ver,
        "(edge + 1) * pigeons + tail[cand]",
        "(edge + 1) * pigeons + (tail[cand] + 1) % pigeons",
        ("oracle-gate-n2", "oracle gate: engine mismatch at index 1182"),
        WIRING_AT_N3_N4,
    ),
    "step-plane-with-the-wrong-tail": (
        ver,
        "(e + 1) * pigeons + tail[edge]",
        "(e + 1) * pigeons + (tail[edge] + 1) % pigeons",
        ("oracle-gate-n2", "oracle gate: engine mismatch at index 1504"),
        {"step1-lemma-n2": "not a gap: the walk stopped after its first step reads no step plane"},
    ),
    "slot-tail-shifted": (
        ver,
        "        slot_tail=tail[edge],\n",
        "        slot_tail=(tail[edge] + 1) % pigeons,\n",
        ("step1-lemma-n2", "378 tables mismatch"),
        {},
    ),
    "live-misses-init-0": (
        ver,
        "planes[: bt.n + 1]",
        "planes[1 : bt.n + 1]",
        # A table that asks pigeon 0 first and stays past step 1 is never routed.
        ("oracle-gate-n2", "oracle gate: engine mismatch at index 792"),
        {},
    ),
    "compat-with-its-hole-shifted": (
        ver,
        "(e[:, None] % n == e % n)",
        "((e[:, None] + 1) % n == e % n)",
        ("oracle-gate-n3", "oracle gate: engine mismatch at index 24894166"),
        {},
    ),
    "transitivity-masks-with-trees-i-is-below": (
        ver,
        "np.argwhere(lt[below] & ~row)",
        "np.argwhere(lt[below] & row)",
        ("planted-intransitive-order", "messages differ from the loop reference"),
        {},
    ),
    "looped-ignores-live": (
        ver,
        "(live & looped, LOOP)",
        "(looped, LOOP)",
        # A column that left by a loop and waits in the planes hits the loop
        # again, and is routed again at a later step.
        ("trace-n3-window", "26843 tables moved"),
        {
            "batch-results-n1-n2": "not a gap: at n <= 2 every loop exit is at "
            "t = 1, before any table is in the planes",
        },
    ),
    "brent-anchors-at-1-2-3-5-9": (
        ver,
        "anchored = not t & (t - 1)",
        "anchored = t <= 2 or not (t - 1) & (t - 2)",
        ("trace-n3-window", "40209 tables moved"),
        {
            # Any anchor schedule certifies a repeat; only the exit steps
            # move, and the walk stopped after its first step has none.
            "step1-lemma-n2": "not a gap: every verdict and route stays",
        },
    ),
    "hold-back-every-100th-table": (
        ver,
        "HOLD_BACK_MODULUS = 101\n",
        "HOLD_BACK_MODULUS = 100\n",
        # 100 is a multiple of the base 4: every held table asks pigeon 0 first.
        ("hold-back-digits-n3", "digit 0 held 2622 / 0 / 0 / 0 times"),
        {},
    ),
    "loop-bound-one-step-longer": (
        ver,
        "    K = 2 * (bt.n - 2) + 1\n",
        "    K = 2 * (bt.n - 2) + 2\n",
        ("loop-bound-witness-n4", "2 found, 5 expected"),
        {
            "loop-bound-claim-n3": "item 6: the claim against its scalar witness, both ways",
            "loop-bound-claim-n4": "item 6: the claim against its scalar witness, both ways",
        },
    ),
    "loop-bound-one-step-shorter": (
        ver,
        "    K = 2 * (bt.n - 2) + 1\n",
        "    K = 2 * (bt.n - 2)\n",
        ("loop-bound-witness-n4", "32 found, 5 expected"),
        {"loop-bound-claim-n4": "item 6: the claim against its scalar witness, both ways"},
    ),
    "loop-bound-fixpoint-after-one-step": (
        ver,
        "        union = grown\n",
        "        union = grown\n        break\n",
        ("loop-bound-witness-n4", "3 found, 5 expected"),
        {
            "loop-bound-claim-n3": "item 6: the claim against its scalar witness, both ways",
            "loop-bound-claim-n4": "item 6: the claim against its scalar witness, both ways",
        },
    ),
    "loop-bound-closure-always": (
        ver,
        "    if union is within:\n",
        "    if True:\n",
        ("loop-bound-witness-n4", "0 found, 5 expected"),
        {
            # Every block of the claims' first 2^16 indices closes.
            "loop-bound-claim-n3": "item 6: the claim against its scalar witness, both ways",
            "loop-bound-claim-n4": "item 6: the claim against its scalar witness, both ways",
            "loop-bound-closure-n3": "item 6: the claim against its scalar witness, both ways",
        },
    ),
    "loop-bound-closure-never": (
        ver,
        "    if union is within:\n",
        "    if False:\n",
        ("loop-bound-closure-n3", "0 of 4 blocks closed"),
        {
            # A closed block's two hit tests agree, so the hit route finds no
            # violator in it either.
            "loop-bound-witness-n4": "equivalent in verdicts: the hit route decides a closed block too",
            "loop-bound-claim-n3": "equivalent in verdicts: the hit route decides a closed block too",
            "loop-bound-claim-n4": "equivalent in verdicts: the hit route decides a closed block too",
        },
    ),
    "loop-bound-walks-even-candidates-only": (
        ver,
        "    if not kept.any():\n",
        "    kept &= np.arange(len(kept)) % 2 == 0\n    if not kept.any():\n",
        ("loop-bound-witness-n4", "2 found, 5 expected"),
        {
            "loop-bound-claim-n3": "item 6: the claim against its scalar witness, both ways",
            "loop-bound-claim-n4": "item 6: the claim against its scalar witness, both ways",
        },
    ),
    "loop-bound-walks-every-candidate": (
        ver,
        "    kept = loops.any(axis=1)\n",
        "    kept = np.ones(len(loops), dtype=bool)\n",
        ("loop-bound-walked-n3", "48 candidates walked, 25 expected"),
        {
            # A candidate that is a loop in no table flags none.
            "loop-bound-witness-n4": "equivalent in verdicts: a dropped candidate is no loop",
            "loop-bound-claim-n3": "equivalent in verdicts: a dropped candidate is no loop",
            "loop-bound-claim-n4": "equivalent in verdicts: a dropped candidate is no loop",
            "loop-bound-closure-n3": "equivalent in verdicts: a dropped candidate is no loop",
        },
    ),
    "loop-bound-masks-with-the-first-loop-planes": (
        ver,
        "violation = loops[kept] &",
        "violation = loops[: np.count_nonzero(kept)] &",
        ("loop-bound-blocks-n4", "0 of 40 violators in block 416594564"),
        {
            # A seeded batch keeps every candidate, and every block of the
            # claims' first 2^16 indices closes.
            "loop-bound-witness-n4": "not a gap: loop-bound-blocks-n4 drops candidates",
            "loop-bound-claim-n3": "item 6: the claim against its scalar witness, both ways",
            "loop-bound-claim-n4": "item 6: the claim against its scalar witness, both ways",
        },
    ),
    "restrict-pads-from-the-last-kept-slot": (
        ver,
        "np.where(cols, np.cumsum(cols) - 1, 0)",
        "np.where(cols, np.cumsum(cols) - 1, -1)",
        None,
        {
            # Only padding terms name a dropped slot; the second mask of the
            # check drops candidate 0, whose slot 0 they all name.
            "walk-restrict-n3": "equivalent: a padding term reads the all-zero table plane",
        },
    ),
    "restrict-hits-on-the-first-candidates": (
        ver,
        "hit_plane=self.hit_plane[:, kept]",
        "hit_plane=self.hit_plane[:, : np.count_nonzero(kept)]",
        ("walk-restrict-n3", "a restricted hit test differs"),
        {
            # A seeded batch keeps every candidate.
            "loop-bound-witness-n4": "not a gap: walk-restrict-n3 drops candidates",
        },
    ),
    "canonical-wins-ignores-gave-up": (
        ver,
        "s in window and (cp.gave_up_step is None or s < cp.gave_up_step)",
        "s in window",
        # The planted 4-cycle table, which wins only after giving up.
        ("php-trees-claim", "complete tree but canonical win at sample -3"),
        {},
    ),
    "canonical-wins-counts-the-gave-up-step": (
        ver,
        "s < cp.gave_up_step",
        "s <= cp.gave_up_step",
        None,
        {
            # At the give-up step the question is new and every hole is taken
            # by another pigeon, so the filler record always conflicts; see
            # test_no_canonical_play_wins_at_its_gave_up_step.
            "php-trees-claim": "equivalent: no canonical play wins at its gave-up step",
            "php-biconditional-n2": "equivalent: no canonical play wins at its gave-up step",
        },
    ),
    "certificate-hits-every-step": (
        sg,
        "        hits.append(bool(r & target))\n",
        "        hits.append(True)\n",
        WITNESS_N2,
        WITNESS_AT_N3_N4,
    ),
    "dfs-wins-without-the-final-compatibility": (
        sg,
        "if not won[depth] and all((p == q) == (h == k) for q, k in walk):",
        "if not won[depth]:",
        WITNESS_N2,
        WITNESS_AT_N3_N4,
    ),
    "dfs-walks-locally-inconsistent-steps": (
        sg,
        "                if (p == q) != (h == k):\n                    continue\n",
        "",
        WITNESS_N2,
        WITNESS_AT_N3_N4,
    ),
    "php-tree-skips-the-last-hole": (
        phpmod,
        "        for h in range(n):\n            if h in path:\n",
        "        for h in range(n - 1):\n            if h in path:\n",
        # The planted successor table, whose tree is complete.
        ("php-trees-claim-of-tree", "incomplete tree but no canonical win at sample -5"),
        {},
    ),
    "php-tree-stops-only-at-its-own-pigeon": (
        phpmod,
        "            if nxt in labels_on_path:\n",
        "            if nxt == current:\n",
        ("php-trees-claim-of-tree", "invalid build at sample 0 n=3"),
        {},
    ),
    "tree-key-not-negated": (
        treemod,
        "tuple(-i for v in vs for i in v)",
        "tuple(i for v in vs for i in v)",
        ("order-claim-b2-h2", "embedding not order-reversing at 3,2"),
        {},
    ),
    "tree-key-vertices-reversed": (
        treemod,
        "tuple(-i for v in vs for i in v)",
        "tuple(-i for v in reversed(vs) for i in v)",
        ("order-claim-b2-h2", "equality failure 8,11"),
        {},
    ),
    "tree-key-drops-last-vertex": (
        treemod,
        "tuple(-i for v in vs for i in v)",
        "tuple(-i for v in vs[:-1] for i in v)",
        ("order-claim-b2-h2", "equality failure 0,1"),
        {},
    ),
    "tree-key-ends-each-vertex": (
        treemod,
        "tuple(-i for v in vs for i in v)",
        "tuple(i for v in vs for i in (*(-j for j in v), 0))",
        None,
        {
            # By prefix-closure the first mismatch of two keys never falls at
            # the end of a vertex, so no terminator is ever compared.
            "order-claim-b2-h2": "equivalent: no terminator is ever compared",
        },
    ),
    **{
        name: (g2mod, fragment, replacement, ("g2-properties-claim", RAMIFY_LOST), RAMIFY_N2)
        # Each name notes the Delayer branches the mutant explores at n = 3;
        # the Prover itself explores 39.
        for name, fragment, replacement in (
            (
                "ramify-skips-the-refuting-move",  # 1,899 branches
                "if not matchings_consistent(store, answer):",
                "if False:",
            ),
            (
                "ramify-asks-no-kill-query",  # 177 branches
                "kill = _kill_query(pos, tree, cfg)",
                "kill = None",
            ),
            (
                "ramify-without-option-2-fallback",  # 3,369 branches
                "            if mv.option == 2:\n",
                "            if False:\n",
            ),
            (
                "ramify-sweep-asks-pigeon-0",  # 51 branches
                "return Query.of([c[0]])",
                "return Query.of([0])",
            ),
            (
                "kill-query-without-pairs",  # 177 branches
                "    queries += [Query.of(pair) for pair in itertools.combinations(pigeons, 2)]\n",
                "",
            ),
            (
                "candidate-moves-without-option-3",  # 189 branches
                "ProverMove(2, c[:cut], 1), ProverMove(3, c[:cut], 1)]",
                "ProverMove(2, c[:cut], 1)]",
            ),
        )
    },
    "ramify-concedes-to-child-2": (
        g2mod,
        "return ProverMove(1, 1, 1)  # no non-losing move: concede",
        "return ProverMove(1, 2, 1)  # no non-losing move: concede",
        None,
        {
            # Every position of the Prover's play at n = 2 and 3 has a
            # non-losing move, so it never concedes; the faulty Provers above
            # do reach the concede.
            "g2-properties-claim": "equivalent: the Prover never concedes",
            "root-ramify-n2": "equivalent: the Prover never concedes",
        },
    ),
    "prime-decode-neutral-aux-2": (
        g2p,
        "return k, max(a, 1)",
        "return k, max(a, 2)",
        # 1 play of 250 differs, 12 of 1,000.
        ("g2prime-claim", "play 217: delayer@2 vs delayer@4"),
        {},
    ),
    "prime-member-refuses-raw-index-1": (
        g2p,
        "0 <= a <= cfg.cap",
        "1 <= a <= cfg.cap",
        # 4 plays of 250 differ, 18 of 1,000.
        ("g2prime-claim", "play 39: prover@3 vs delayer@3"),
        {},
    ),
    "seeded-oblivious-drops-aux-on-option-2": (
        ver,
        "g2mod.ProverMove(2, v[:cut], aux[cut])",
        "g2mod.ProverMove(2, v[:cut], 1)",
        # 5 plays of 250 differ, 37 of 1,000.
        ("g2prime-claim-of-verify", "play 39: delayer@3 vs prover@3"),
        {},
    ),
    "subset-control-one-round-longer": (
        ver,
        "lowered = strat.with_s(n)\n",
        "lowered = strat.with_s(n + 1)\n",
        (
            "subset-claims",
            "; ".join(f"n={n}: negative control failed: no Delayer win at s=n" for n in range(1, 5)),
        ),
        {},
    ),
}


# name -> the other checks that refuse the mutant, each with its message.
ALSO_REFUSED = {
    "loop-bound-one-step-shorter": (("loop-bound-claim-n3", "1104 counterexamples"),),
    "loop-bound-walks-even-candidates-only": (
        ("loop-bound-walked-n3", "13 candidates walked, 25 expected"),
    ),
    "canonical-wins-ignores-gave-up": (("php-biconditional-n2", "72 tables break the biconditional"),),
    "loop-plane-one-pigeon-off": (
        ("batch-results-n1-n2", "route differs at n=1"),
        ("trace-n3-window", "30720 tables moved"),
    ),
    "hit-plane-with-the-wrong-tail": (
        ("step1-lemma-n2", "1155 tables mismatch"),
        ("batch-results-n1-n2", "route differs at n=1"),
        ("trace-n3-window", "112789 tables moved"),
    ),
    "step-plane-with-the-wrong-tail": (
        ("oracle-gate-n3", "oracle gate: engine mismatch at index 24894166"),
        ("oracle-gate-n4", "oracle gate: engine mismatch at index 246330082514643"),
        ("batch-results-n1-n2", "route differs at n=1"),
        ("trace-n3-window", "49360 tables moved"),
    ),
    "slot-tail-shifted": (
        ("oracle-gate-n2", "oracle gate: engine mismatch at index 1504"),
        ("oracle-gate-n3", "oracle gate: engine mismatch at index 29526795"),
        ("oracle-gate-n4", "oracle gate: engine mismatch at index 246330082514643"),
        ("batch-results-n1-n2", "route differs at n=1"),
        ("trace-n3-window", "43 tables moved"),
    ),
    "compat-with-its-hole-shifted": (
        ("oracle-gate-n4", "oracle gate: engine mismatch at index 408323930778115"),
        ("oracle-gate-n2", "oracle gate: engine mismatch at index 792"),
        ("step1-lemma-n2", "888 tables mismatch"),
        ("batch-results-n1-n2", "route differs at n=2"),
        ("trace-n3-window", "60141 tables moved"),
    ),
    "brent-anchors-at-1-2-3-5-9": (
        ("oracle-gate-n2", "oracle gate: engine mismatch at index 792"),
        ("oracle-gate-n3", "oracle gate: engine mismatch at index 24894166"),
        ("oracle-gate-n4", "oracle gate: engine mismatch at index 408323930778115"),
        ("batch-results-n1-n2", "closed_at differs at n=1"),
    ),
    "first-step-ignores-loop-plane": (
        ("batch-results-n1-n2", "route differs at n=2"),
        ("trace-n3-window", "66257 tables moved"),
    ),
    "hold-back-every-100th-table": (("trace-n3-window", "311 tables moved"),),
    "live-misses-init-0": (
        ("oracle-gate-n3", "oracle gate: engine mismatch at index 46874028"),
        ("oracle-gate-n4", "oracle gate: engine mismatch at index 408323930778115"),
        ("batch-results-n1-n2", "route differs at n=1"),
        ("trace-n3-window", "13655 tables moved"),
    ),
}
assert set(ALSO_REFUSED) <= set(MUTANTS)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant(name):
    module, fragment, replacement, refused, survives = MUTANTS[name]
    refusals = [pair for pair in (refused, *ALSO_REFUSED.get(name, ())) if pair is not None]
    checks = [*dict(refusals), *survives]
    assert all(CHECKS[check][0] is module for check in checks), "a check takes another module"
    with _mutant(module, fragment, replacement) as mod:
        for check, message in refusals:
            assert CHECKS[check][1](mod) == message
        for check in survives:
            assert CHECKS[check][1](mod) is None, f"{check} now refuses it: update its row"


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_every_check_accepts_the_module_itself(check):
    module, accepts = CHECKS[check]
    assert accepts(module) is None


def test_a_fragment_must_occur_exactly_once():
    with pytest.raises(AssertionError, match="occurs 0 times"):
        with _mutant(ver, "no such fragment", ""):
            pass
    with pytest.raises(AssertionError, match=r"occurs ([2-9]|\d\d+) times"):
        with _mutant(ver, "return ", "return  "):
            pass
    assert not any(name.startswith("_mutant_of_") for name in sys.modules)
