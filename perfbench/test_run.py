"""Tests of the benchmark runner: python3 -m unittest discover -s perfbench"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

RECORD = (
    '{"kind":"bench","experiment":"sweep","domain":"arith","insts":2,'
    '"space":"2661696","prune":false,"shards":7,"shard_id":3,"checked":380256,'
    '"changed":358582,"refined":380256,"violations":0,"inconclusive":0,'
    '"complete":true,"wall_secs":2.502,"fns_per_sec":153588.0,"dedup_skips":0,'
    '"seen_peak":0,"dedup_skip_rate":0.0000,"cache_hits":355175,'
    '"cache_misses":383663,"tuples_per_pass":36.0,"pruned_commutative":0,'
    '"pruned_const_position":0,"pruned_dead":0,"stride_skips":2281536}\n'
)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(100, 0, -1))
        self.assertEqual(run.percentile(samples, 50), 50)
        self.assertEqual(run.percentile(samples, 90), 90)
        self.assertEqual(run.percentile(samples, 100), 100)
        self.assertEqual(run.percentile([0.25], 90), 0.25)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(99), 50)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(10000), 99.9)


class BenchRecordTest(unittest.TestCase):
    def test_parses_the_sweep_record(self):
        record = run.parse_bench_record(RECORD)
        self.assertEqual(record["checked"], 380256)
        self.assertEqual(record["fns_per_sec"], 153588.0)
        self.assertIs(record["complete"], True)

    def test_rejects_other_records(self):
        with self.assertRaises(ValueError):
            run.parse_bench_record('{"kind":"span","name":"x"}')
        with self.assertRaises(ValueError):
            run.parse_bench_record("sweep: checked=1")

    def test_gate_needs_expected_tallies_and_a_clean_complete_slice(self):
        record = run.parse_bench_record(RECORD)
        expected = {"checked": 380256, "changed": 358582, "refined": 380256}
        self.assertTrue(run.tallies_match(record, expected))
        self.assertFalse(run.tallies_match(record, dict(expected, changed=1)))
        self.assertFalse(run.tallies_match(dict(record, complete=False), expected))
        self.assertFalse(run.tallies_match(dict(record, inconclusive=1), expected))


class SliceTest(unittest.TestCase):
    def test_seed_picks_one_recorded_slice(self):
        expected = run.load_expected()
        for workload, w in run.SWEEPS.items():
            classes = sorted(map(int, expected[workload]))
            self.assertEqual(classes, list(range(w["shards"])))
            for seed in range(3 * w["shards"]):
                shard = run.slice_of(workload, seed)
                self.assertEqual(shard, run.slice_of(workload, seed))
                self.assertEqual(shard, seed % w["shards"])


class SpecTest(unittest.TestCase):
    def test_spec_names_the_workloads_and_metrics_the_runners_report(self):
        spec = run.load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        names = {m["name"] for m in spec["end_to_end"]}
        self.assertEqual(
            names,
            {"fn_per_s", "cpu_us_per_fn", "setup_s", "peak_rss_mb",
             *run.latency_metrics([1.0])},
        )
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
