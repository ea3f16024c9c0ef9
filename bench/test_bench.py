"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from steincalc import exactmat, knots, plumbing, reports, smooth4  # noqa: E402


def fraction_det(rows) -> Fraction:
    """Gaussian elimination over the rationals, independent of the program."""
    A = [[Fraction(x) for x in r] for r in rows]
    n, det = len(A), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det *= A[k][k]
        for i in range(k + 1, n):
            f = A[i][k] / A[k][k]
            A[i] = [a - f * b for a, b in zip(A[i], A[k])]
    return det


def round_props(workload, seed, count=2, tmp=None):
    stream = workloads.rounds(workload, seed, tmp)
    return [[(op.kind, json.dumps(op.props, sort_keys=True)) for op in next(stream)] for _ in range(count)]


class TempDirCase(unittest.TestCase):
    def setUp(self):
        import tempfile

        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()


class GeneratorTests(TempDirCase):
    def test_rounds_are_deterministic_per_seed(self):
        for workload in workloads.WORKLOADS:
            a = round_props(workload, 7, tmp=self.tmp)
            self.assertEqual(a, round_props(workload, 7, tmp=self.tmp), workload)
            self.assertNotEqual(a, round_props(workload, 8, tmp=self.tmp), workload)

    def test_generators_are_deterministic_per_seed(self):
        for make in (lambda r: gen.resolution_tree(r, 25), lambda r: gen.indefinite_tree(r, 25),
                     lambda r: gen.seifert_family(r, 4), lambda r: gen.reduced_star(r, 2, 3)):
            self.assertEqual(make(random.Random(3)), make(random.Random(3)))

    def test_congruence_preserves_delta_and_skew_determinant(self):
        rng = random.Random(11)
        for k in (1, 2, 3, 4):
            for ms in gen.block_multisets(k):
                V = gen.congruent_seifert(rng, ms)
                skew = [[V[i][j] - V[j][i] for j in range(2 * k)] for i in range(2 * k)]
                self.assertEqual(fraction_det(skew), 1)
                golden = gen.golden_delta(ms)
                for t in (2, 3):
                    pencil = [[V[i][j] - t * V[j][i] for j in range(2 * k)] for i in range(2 * k)]
                    at_t = sum(Fraction(t) ** e * c for e, c in golden.items())
                    self.assertEqual(abs(fraction_det(pencil)), abs(t**k * at_t))
                got = knots.alexander(knots.SeifertMatrixK("V", exactmat.IntMatrix(V)))
                self.assertEqual(dict(got.items()), golden)

    def test_family_members_have_distinct_block_multisets(self):
        fam = gen.seifert_family(random.Random(5), 3)
        self.assertEqual(len({m["blocks"] for m in fam["members"]}), 5)

    def test_dominant_trees_are_negative_definite(self):
        rng = random.Random(2)
        for n in (2, 5, 20, 26):
            tree = gen.resolution_tree(rng, n)
            G = plumbing.PlumbingGraph(tree["vertices"], tree["edges"])
            M = plumbing.intersection_matrix(G)
            for v in range(n):
                self.assertGreaterEqual(-M[v, v], G.degree(v))
            self.assertTrue(exactmat.is_negative_definite(M))
            self.assertEqual(exactmat.signature(M), -n)

    def test_laurent_parse_inverts_the_printed_form(self):
        for p in ({-1: 1, 0: -3, 1: 1}, {-4: 2, 0: -5, 4: 2}, {0: 7}, {-2: 1, 2: 1}):
            self.assertEqual(gen.parse_laurent(str(knots.LaurentPoly(p))), p)


class TraceTests(unittest.TestCase):
    def snapshot(self):
        names = [n for n in sys.modules if n == "steincalc" or n.startswith("steincalc.")]
        state = {(n, a): v for n in names for a, v in vars(sys.modules[n]).items()}
        state[("MoveScript", "replay")] = vars(plumbing.MoveScript)["replay"]
        state[("Report", "to_json")] = vars(reports.Report)["to_json"]
        return state

    def test_traced_run_restores_every_wrapped_attribute(self):
        before = self.snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            patched = {(getattr(o, "__name__", o), a) for o, a in tracer.patched}
            self.assertIn(("steincalc.reports", "boundary_homology"), patched)
            self.assertIn(("steincalc.smooth4", "matrix_signature"), patched)
            self.assertIn(("steincalc.cli", "build_parser"), patched)
            self.assertNotIn(("LaurentPoly", "__mul__"), patched)
            reports.report_figure1(1, (2, 3)).to_json()
        finally:
            tracer.restore()
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        names = {s[0] for s in tracer.spans}
        self.assertIn("reports.report_figure1", names)
        self.assertIn("plumbing.MoveScript.replay", names)
        self.assertIn("reports.Report.to_json", names)
        self.assertIs(smooth4.matrix_signature, exactmat.signature)

    def test_self_time_subtracts_children(self):
        tracer = tracing.Tracer()
        tracer.spans[:] = [["a.f", 0.0, 10.0, -1, False], ["b.g", 1.0, 4.0, 0, False], ["c.h", 2.0, 3.0, 1, True]]
        st = tracer.self_times()
        self.assertEqual(st["a.f"], (1, 7.0, 0))
        self.assertEqual(st["b.g"], (1, 2.0, 0))
        self.assertEqual(st["c.h"], (1, 1.0, 1))


class OutcomeTests(TempDirCase):
    def tree_op(self):
        tree = gen.resolution_tree(random.Random(1), 12)
        return workloads.tree_op(tree)

    def test_correct_op_passes(self):
        phase = run.Phase()
        phase.run_op(self.tree_op())
        self.assertEqual((phase.attempted, phase.failed), (1, 0))

    def test_wrong_output_counts_as_failed(self):
        op = self.tree_op()
        det, sig, negdef, h1 = op.call()
        op.call = lambda: (det + 1, sig, negdef, h1)
        phase = run.Phase()
        phase.run_op(op)
        self.assertEqual((phase.attempted, phase.failed, phase.wrong), (1, 1, 1))

    def test_digest_mismatch_counts_as_failed(self):
        phase = run.Phase(pinned=["0" * 16])
        phase.run_op(self.tree_op())
        self.assertEqual((phase.failed, phase.wrong), (1, 1))

    def test_warmup_round_matches_pinned_digests(self):
        pinned = json.loads(run.DIGESTS.read_text())
        for workload in ("desk", "trees"):
            phase = run.Phase(pinned[workload])
            phase.run(workloads.rounds(workload, run.PINNED_SEED, self.tmp, warmup=True), rounds=1)
            self.assertEqual((phase.attempted, phase.failed), (len(pinned[workload]), 0), phase.errors)

    def test_desk_content_ignores_added_keys_and_checks(self):
        for op in next(workloads.rounds("desk", 3, self.tmp)):
            code, text = op.call()
            d = json.loads(text)
            d["citation"] = "added later"
            if "checks" in d:
                d["checks"].append({"name": "added later", "verdict": "pass"})
            self.assertEqual(op.check((code, json.dumps(d))), op.check((code, text)), op.kind)

    def test_failed_report_verdict_counts_as_failed(self):
        rpt = reports.report_figure1(1, (2, 3))
        rpt.check("forced", 1, 2)
        op = workloads.Op("report", lambda: json.loads(rpt.to_json()), workloads.check_report)
        phase = run.Phase()
        phase.run_op(op)
        self.assertEqual(phase.failed, 1)

    def test_stall_counts_as_failed(self):
        import signal

        def spin():
            while True:
                pass

        limit, run.STALL_LIMIT_S = run.STALL_LIMIT_S, 0.05
        old = signal.signal(signal.SIGALRM, run._on_alarm)
        try:
            phase = run.Phase()
            phase.run_op(workloads.Op("spin", spin, lambda out: out))
        finally:
            run.STALL_LIMIT_S = limit
            signal.signal(signal.SIGALRM, old)
        self.assertEqual((phase.failed, phase.wrong), (1, 0))
        self.assertGreaterEqual(phase.latencies[0], 0.05)

    def test_latencies_scale_with_the_nearest_calibration_samples(self):
        phase = run.Phase()
        phase.starts, phase.latencies, phase.ok = [0.0, 100.0, 101.0], [0.3, 0.3, 40.0], [True, True, False]
        slow = [(float(t), 2 * run.REF_S) for t in range(run.CAL_NEAREST)]
        fast = [(100.0 + t, run.REF_S / 2) for t in range(run.CAL_NEAREST)]
        phase.cal = slow + fast
        # a host twice as slow halves the time; a failed op keeps its time
        self.assertEqual(phase.scaled_latencies(), [0.15, 0.6, 40.0])


class ContractTests(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        phase = run.Phase()
        phase.latencies = [0.001 * i for i in range(1, 101)]
        phase.starts, phase.ok = [float(i) for i in range(100)], [True] * 100
        phase.cal = [(float(i), run.REF_S) for i in range(100)]
        self.assertEqual(set(run.end_to_end(phase, 0.1)), {m["name"] for m in spec["end_to_end"]})
        per_layer = set(tracing.Tracer().metrics(1.0)) | {"trace.overhead"}
        self.assertEqual(per_layer, {m["name"] for m in spec["per_layer"]})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
