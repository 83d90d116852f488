"""Self-tests of the benchmark's own machinery.

Run from the root of a source checkout:

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

numpy, cli, verify = run.load_package()


def package_namespaces() -> dict:
    return {
        mod.__name__: dict(vars(mod))
        for key, mod in sys.modules.items()
        if mod is not None and (key == "pebblegames" or key.startswith("pebblegames."))
    }


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_child_coverage(self):
        sp = [
            Span("root", 0.0, 10.0, -1),
            Span("a", 1.0, 4.0, 0),
            Span("b", 3.0, 6.0, 0),  # overlaps a: coverage is the union [1, 6]
            Span("leaf", 2.0, 3.0, 1),
            Span("b", 8.0, 9.5, 0),
        ]
        self.assertEqual(spans.self_times(sp), [3.5, 2.0, 3.0, 1.0, 1.5])
        tot = spans.totals(sp)
        self.assertEqual((tot["root"].s, tot["root"].self_s, tot["root"].calls), (10.0, 3.5, 1))
        self.assertEqual((tot["b"].s, tot["b"].self_s, tot["b"].calls), (4.5, 4.5, 2))

    def test_recursive_span_counted_once(self):
        sp = [Span("f", 0.0, 4.0, -1), Span("g", 0.5, 3.5, 0), Span("f", 1.0, 2.0, 1)]
        tot = spans.totals(sp)
        self.assertEqual((tot["f"].s, tot["f"].self_s, tot["f"].calls), (4.0, 2.0, 2))
        self.assertEqual(tot["g"].self_s, 2.0)

    def test_tracer_nests_and_orders(self):
        tr = spans.Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        with tr.span("next"):
            pass
        sp = tr.spans()
        self.assertEqual([(s.name, s.parent) for s in sp], [("outer", -1), ("inner", 0), ("next", -1)])
        self.assertTrue(sp[0].start <= sp[1].start <= sp[1].end <= sp[0].end <= sp[2].start)


class Wrapping(unittest.TestCase):
    def test_every_binding_wrapped_then_restored(self):
        before = package_namespaces()
        tr = spans.Tracer()
        patches = spans.install(tr, run.TRACED, run.NOTES)
        try:
            # The gate reaches delayer_wins_lengths through verify's own
            # binding, not through simple_game's.
            self.assertIs(verify.delayer_wins_lengths.__bench_wrapped__,
                          sys.modules["pebblegames.simple_game"].delayer_wins_lengths.__bench_wrapped__)
            verify.verify_theorem_main(n=3, sample=256, seed=5)
        finally:
            spans.restore(patches)
        self.assertEqual(spans.leftovers(patches), [])
        after = package_namespaces()
        self.assertEqual(before.keys(), after.keys())
        for name, ns in before.items():
            for attr, value in ns.items():
                self.assertIs(after[name][attr], value, f"{name}.{attr}")
        names = {s.name for s in tr.spans()}
        self.assertTrue({"verify.certify_batch", "simple_game.delayer_wins_lengths",
                         "simple_game.brute_force_delayer_wins"} <= names)

    def test_generator_spans_cover_each_resume(self):
        tr = spans.Tracer()
        patches = spans.install(tr, [("simple_game", "all_canonical_plays")], {})
        try:
            strat = verify.index_to_strategy(12345, 3, 4)
            plays = list(verify.all_canonical_plays(strat))
        finally:
            spans.restore(patches)
        sp = tr.spans()
        # One span per item plus the resume that ends the generator.
        self.assertEqual(len(sp), len(plays) + 1)
        self.assertTrue(all(s.parent == -1 for s in sp))


class TracedEqualsUntraced(unittest.TestCase):
    def test_sweep_round(self):
        work = run.Sweep(verify, 3, 4096)
        plain = work.run(7)
        traced, layers = run.traced_round(work, 7, plain)
        self.assertEqual(traced.verdict, plain.verdict)
        self.assertEqual(traced.failed, 0)
        self.assertEqual(layers["verify.route.fast_path"], plain.fast_path)
        self.assertEqual(sum(layers[f"verify.route.{r}"] for r in run.ROUTES), 4096)
        self.assertGreater(layers["verify.gate.s"], 0.0)
        self.assertEqual(set(layers), set(run.PER_LAYER))

    def test_loop_bound_round(self):
        work = run.LoopBound(verify)
        run_limit, run.LOOP_LIMIT = run.LOOP_LIMIT, 1 << 12
        try:
            plain = work.run(0)
            traced, layers = run.traced_round(work, 0, plain)
        finally:
            run.LOOP_LIMIT = run_limit
        self.assertEqual(traced.verdict, plain.verdict)
        self.assertEqual((plain.failed, traced.failed), (0, 0))
        self.assertGreater(layers["verify.verify_loop_bound.self_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
