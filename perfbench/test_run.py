#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_run.py        (from the root of the checkout)

Each correctness check is fed a corrupted answer and must fail; the load
client's own checks are driven by a fake server on a loopback port; and each
workload runs end to end in its short smoke mode. The first run builds the
benchmark's binaries under .bench_build/.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
os.chdir(ROOT)

import run  # noqa: E402


def setUpModule():
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    run.build()


class CheckTest(unittest.TestCase):
    # Two adgroups: one sibling pair each, requests 0/1 and 2/3. In the
    # first A has the higher CTR, in the second B.
    FACTS = [(0, 1, +1), (2, 3, -1)]

    def test_agreement_passes_on_right_verdicts(self):
        self.assertEqual(run.check_agreement(self.FACTS, "abba"), [])

    def test_agreement_fails_on_flipped_verdicts(self):
        self.assertTrue(run.check_agreement(self.FACTS, "baab"))

    def test_order_dependence_counts_same_label_in_both_orders(self):
        self.assertEqual(run.order_dependent_pairs(self.FACTS, "abba"), 0)
        self.assertEqual(run.order_dependent_pairs(self.FACTS, "aaba"), 1)

    def test_bitwise_fails_on_flipped_margin(self):
        served = ["0.125", "-0.5"]
        self.assertEqual(run.check_bitwise(served, [0.125, -0.5], "x"), [])
        self.assertTrue(run.check_bitwise(served, [0.125, 0.5], "x"))

    def test_bitwise_fails_on_last_bit(self):
        self.assertTrue(run.check_bitwise(["0.1"], [0.1 + 2 ** -56], "x"))

    def test_resend_fails_on_miss_or_changed_value(self):
        summary = {"values": ["1.5", "2.5"],
                   "resend": [{"index": 1, "value": "2.5", "cache": "hit"}]}
        self.assertEqual(run.check_resend(summary), [])
        summary["resend"][0]["cache"] = "miss"
        self.assertTrue(run.check_resend(summary))
        summary["resend"][0].update(cache="hit", value="2.25")
        self.assertTrue(run.check_resend(summary))

    def test_artifacts_fail_on_changed_byte(self):
        passes = [{"model.mbp": "aa", "stats.mbp": "bb"}] * 2
        self.assertEqual(run.check_same_artifacts(passes), [])
        self.assertTrue(run.check_same_artifacts(passes + [{"model.mbp": "ab",
                                                            "stats.mbp": "bb"}]))

    def test_client_summary_flags(self):
        clean = {"id_mismatch": 0, "value_mismatch": 0, "misses": 3}
        self.assertEqual(run.check_client(clean, expect_hits=False), [])
        self.assertTrue(run.check_client(clean, expect_hits=True))
        self.assertTrue(run.check_client(dict(clean, id_mismatch=1), expect_hits=False))
        self.assertTrue(run.check_client(dict(clean, value_mismatch=1), expect_hits=False))


class FakeServer:
    """Answers score_pair lines; `fault` corrupts the answers."""

    def __init__(self, fault):
        self.fault = fault
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen()
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self.serve)
        self.thread.start()

    def serve(self):
        conn, _ = self.listener.accept()
        seen = 0
        with conn, conn.makefile("rwb") as stream:
            for line in stream:
                request = json.loads(line)
                seen += 1
                rid = request["id"]
                margin = 0.25
                if self.fault == "swap_id" and seen == 2:
                    rid = "999999"
                if self.fault == "drift" and seen == 3:
                    margin = 0.2500000000000001
                stream.write(b'{"id":"%s","winner":"a","margin":%r,"gen":1,'
                             b'"cache":"miss","ok":true}\n' % (rid.encode(), margin))
                stream.flush()

    def close(self):
        self.thread.join(timeout=30)
        self.listener.close()


class ClientCheckTest(unittest.TestCase):
    def drive(self, fault):
        path = os.path.join(run.WORK_ROOT, "fake_requests.jsonl")
        run.write_lines(path, [run.score_pair_line("x|y", "x|z"),
                               run.score_pair_line("x|z", "x|y")])
        server = FakeServer(fault)
        procs = run.Processes(os.path.join(run.WORK_ROOT, "fake.log"))
        try:
            return run.run_client(procs, run.WORK_ROOT, server.port, path, "fake", 1, 1, 1,
                                  rounds=2)
        finally:
            procs.stop_all()
            server.close()

    def test_clean_answers_pass(self):
        self.assertEqual(run.check_client(self.drive(None), expect_hits=False), [])

    def test_swapped_id_fails(self):
        self.assertTrue(run.check_client(self.drive("swap_id"), expect_hits=False))

    def test_changed_repeat_answer_fails(self):
        self.assertTrue(run.check_client(self.drive("drift"), expect_hits=False))


class SmokeTest(unittest.TestCase):
    def smoke(self, workload, trace=0):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=180)
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], out.stderr[-3000:])
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        names = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
        self.assertEqual(set(result["metrics"]), names)
        return result

    def test_cold_pairs(self):
        result = self.smoke("cold_pairs")
        # Only the fixed order-check pairs fail, so some do, but few.
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"] / 4)

    def test_warm_mix(self):
        self.assertEqual(self.smoke("warm_mix")["failed"], 0)

    def test_train_pipeline(self):
        self.assertEqual(self.smoke("train_pipeline")["failed"], 0)

    def test_traced_run_reports_every_layer(self):
        self.smoke("warm_mix", trace=1)
        with open(os.path.join(run.TRACE_DIR, "warm_mix-seed1.json")) as f:
            trace = json.load(f)
        self.assertTrue(trace["spans"]["probe"])
        self.assertTrue(trace["spans"]["client"])
        self.assertIn("untraced", trace["end_to_end"])


if __name__ == "__main__":
    unittest.main()
