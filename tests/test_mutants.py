"""A standing catalogue of mutants: each check proves what it catches.

A row names a module, a source fragment and its replacement, the check that
must refuse the mutant with the message it gives, and the checks the mutant
is known to survive, each with the ROADMAP item that will close that gap.
An equivalent mutant has no refusing check, and the reason it survives is
recorded in place of an item.  A mutant is built by executing the module's
patched source in a fresh module object; no file is written.  A fragment
that no longer occurs exactly once in the source fails its row, so the
catalogue follows the code; a check that starts to refuse a mutant it is
recorded to survive fails its row too, so a gap that closes is noticed.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import types
from typing import Callable, Iterator, Optional

import numpy as np
import pytest

from pebblegames import trees as treemod
from pebblegames import verify as ver
from test_verify import _cyclic_compare, _order_axiom_failures_by_loops, _step1_loop_exit


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


# A check takes a module with the interface of ``verify`` and returns why it
# refuses it, or None when it accepts it.


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


CHECKS = {
    "step1-lemma-n2": _step1_lemma_at_n2,
    "oracle-gate-n2": _gate(2),
    "oracle-gate-n3": _gate(3),
    "oracle-gate-n4": _gate(4),
    "planted-intransitive-order": _planted_intransitive_order,
    "batch-results-n1-n2": _batch_results_at_n1_n2,
}

# name -> (module, fragment, replacement, (refusing check, its message) or
# None, {check the mutant survives: the ROADMAP item that closes the gap, or
# why the mutant is equivalent}).
MUTANTS = {
    "first-step-ignores-loop-plane": (
        ver,
        "        hits &= tables[bt.loop_plane]\n",
        "",
        ("step1-lemma-n2", "432 tables mismatch"),
        {
            # The gate holds every row back, so it never runs the fast path.
            "oracle-gate-n2": "item 1: a negative control with the sweep's hold-back",
            "oracle-gate-n3": "items 1 and 14: per-candidate hits and the step-1 lemma",
        },
    ),
    "engine-reports-every-table-won": (
        ver,
        "    return BatchResult(wins_all, fast_path, first_fail, uncertified)\n",
        "    return BatchResult(np.ones(B, dtype=bool), fast_path, first_fail, uncertified)\n",
        ("oracle-gate-n2", "oracle gate: engine mismatch at index 1182"),
        {
            # Every table at n >= 3 is won, so the verdicts compared agree.
            "oracle-gate-n3": "item 1: per-candidate hits and the tail",
            "oracle-gate-n4": "item 1: per-candidate hits and the tail",
        },
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
        "        looped &= live & ~held_in\n",
        "        looped &= ~held_in\n",
        None,
        {
            "batch-results-n1-n2": "equivalent: see the comment above "
            "test_certify_batch_packs_out_only_at_brent_anchors",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant(name):
    module, fragment, replacement, refused, survives = MUTANTS[name]
    with _mutant(module, fragment, replacement) as mod:
        if refused is not None:
            check, message = refused
            assert CHECKS[check](mod) == message
        for check in survives:
            assert CHECKS[check](mod) is None, f"{check} now refuses it: update its row"


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_every_check_accepts_the_module_itself(check):
    assert CHECKS[check](ver) is None


def test_a_fragment_must_occur_exactly_once():
    with pytest.raises(AssertionError, match="occurs 0 times"):
        with _mutant(ver, "no such fragment", ""):
            pass
    with pytest.raises(AssertionError, match=r"occurs ([2-9]|\d\d+) times"):
        with _mutant(ver, "return ", "return  "):
            pass
    assert not any(name.startswith("_mutant_of_") for name in sys.modules)
