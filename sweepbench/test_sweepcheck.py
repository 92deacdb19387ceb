"""Tests of the sweep benchmark's own arithmetic (stdlib only):

    python3 -m unittest discover -s sweepbench -p 'test_*.py'
"""

import math
import unittest

import sweepcheck

HEADER = ("# indexmac sweep: spec=t hash=0123456789abcdef\n"
          "suite,workload,count,rows,k,cols,sparsity,algorithm,dataflow,unroll,tile_rows,mode,"
          "cycles,data_accesses\n")
ROLLUP_HEADER = ("# rollup: spec=t hash=0123456789abcdef\n"
                 "suite,sparsity,algorithm,dataflow,unroll,tile_rows,mode,layers,workloads,"
                 "cycles,data_accesses,energy_proxy_bytes\n")

# Expansion order: sparsity -> workload -> algorithm. tiny.wide counts twice.
EXACT_ROWS = [
    "tiny,tiny.square,1,16,64,32,1:4,rowwise,b,4,16,exact,1000,80",
    "tiny,tiny.square,1,16,64,32,1:4,indexmac,b,4,16,exact,500,40",
    "tiny,tiny.wide,2,8,32,48,1:4,rowwise,b,4,16,exact,700,60",
    "tiny,tiny.wide,2,8,32,48,1:4,indexmac,b,4,16,exact,300,30",
    "tiny,tiny.square,1,16,64,32,2:4,rowwise,b,4,16,exact,1800,150",
    "tiny,tiny.square,1,16,64,32,2:4,indexmac,b,4,16,exact,600,40",
]
EXACT_ROLLUP = [
    "tiny,1:4,rowwise,b,4,16,exact,3,2,2400,200,12800",
    "tiny,1:4,indexmac,b,4,16,exact,3,2,1100,100,6400",
    "tiny,2:4,rowwise,b,4,16,exact,1,1,1800,150,9600",
    "tiny,2:4,indexmac,b,4,16,exact,1,1,600,40,2560",
]
SAMPLED_ROWS = [
    "tiny,tiny.square,1,16,64,32,1:4,rowwise,b,4,16,sampled,1100.50,80",
    "tiny,tiny.square,1,16,64,32,1:4,indexmac,b,4,16,sampled,400.00,40",
    "tiny,tiny.wide,2,8,32,48,1:4,rowwise,b,4,16,sampled,700.00,60",
    "tiny,tiny.wide,2,8,32,48,1:4,indexmac,b,4,16,sampled,330.00,30",
    "tiny,tiny.square,1,16,64,32,2:4,rowwise,b,4,16,sampled,1800.00,150",
    "tiny,tiny.square,1,16,64,32,2:4,indexmac,b,4,16,sampled,600.00,40",
]
SAMPLED_ROLLUP = [
    "tiny,1:4,rowwise,b,4,16,sampled,3,2,2500.50,200,12800",
    "tiny,1:4,indexmac,b,4,16,sampled,3,2,1060.00,100,6400",
    "tiny,2:4,rowwise,b,4,16,sampled,1,1,1800.00,150,9600",
    "tiny,2:4,indexmac,b,4,16,sampled,1,1,600.00,40,2560",
]


def report(rows, rollup):
    return HEADER + "".join(r + "\n" for r in rows) + ROLLUP_HEADER + "".join(
        r + "\n" for r in rollup)


EXACT = report(EXACT_ROWS, EXACT_ROLLUP)
SAMPLED = report(SAMPLED_ROWS, SAMPLED_ROLLUP)
EXPECTED = [r.split(",") for r in EXACT_ROWS]
ANALYTIC = sweepcheck.analytic_accesses(SAMPLED)


def ok_share(text, analytic=ANALYTIC):
    ok = sweepcheck.validate_points(text, EXPECTED, analytic)
    return sum(ok) / len(ok)


class JoinTest(unittest.TestCase):
    def test_per_point_and_per_rollup_errors(self):
        point, net = sweepcheck.sampled_errors(EXACT, SAMPLED)
        # Worst point: square 1:4 indexmac, |400 - 500| / 500.
        self.assertAlmostEqual(point, 20.0)
        # Worst rollup: 1:4 rowwise, |2500.5 - 2400| / 2400.
        self.assertAlmostEqual(net, 100.5 / 2400 * 100)

    def test_join_ignores_only_the_mode(self):
        other = SAMPLED.replace("tiny.wide,2,8,32,48,1:4,indexmac",
                                "tiny.wide,2,8,32,48,1:4,indexmac4")
        with self.assertRaises(KeyError):
            sweepcheck.sampled_errors(EXACT, other)

    def test_analytic_footprint_keyed_without_mode(self):
        key = tuple(EXACT_ROWS[2].split(",")[:sweepcheck.MODE])
        self.assertEqual(ANALYTIC[key], 60)


class SpeedupTest(unittest.TestCase):
    def test_geomean_over_rollup_pairs(self):
        # 1:4: 2400 / 1100; 2:4: 1800 / 600.
        expected = math.sqrt(2400 / 1100 * 3.0)
        self.assertAlmostEqual(sweepcheck.geomean_speedup(EXACT, "indexmac"), expected)

    def test_missing_pair_raises(self):
        with self.assertRaises(ValueError):
            sweepcheck.geomean_speedup(EXACT, "indexmac4")


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(sweepcheck.tail_percentile(100), 90)
        self.assertEqual(sweepcheck.tail_percentile(99), 75)
        self.assertEqual(sweepcheck.tail_percentile(114), 90)
        self.assertEqual(sweepcheck.tail_percentile(816), 95)
        self.assertEqual(sweepcheck.tail_percentile(1000), 99)
        self.assertEqual(sweepcheck.tail_percentile(20), 50)
        self.assertIsNone(sweepcheck.tail_percentile(19))
        self.assertIsNone(sweepcheck.tail_percentile(1))

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(sweepcheck.percentile(values, 50), 50)
        self.assertEqual(sweepcheck.percentile(values, 90), 90)
        self.assertEqual(sweepcheck.percentile([7.0], 90), 7.0)


class ValidationTest(unittest.TestCase):
    def test_clean_report_validates(self):
        self.assertEqual(ok_share(EXACT), 1.0)

    def test_missing_row(self):
        text = report(EXACT_ROWS[:3] + EXACT_ROWS[4:], EXACT_ROLLUP)
        self.assertLess(ok_share(text), 1.0)

    def test_duplicate_row(self):
        text = report(EXACT_ROWS[:5] + [EXACT_ROWS[4], EXACT_ROWS[5]], EXACT_ROLLUP)
        self.assertLess(ok_share(text), 1.0)

    def test_zero_cycle_row(self):
        rows = list(EXACT_ROWS)
        rows[4] = rows[4].replace(",1800,", ",0,")
        rollup = list(EXACT_ROLLUP)
        rollup[2] = rollup[2].replace(",1800,", ",0,")  # totals still agree
        self.assertEqual(ok_share(report(rows, rollup)), 5 / 6)

    def test_non_finite_cycles(self):
        rows = list(EXACT_ROWS)
        rows[5] = rows[5].replace(",600,", ",nan,")
        self.assertLess(ok_share(report(rows, EXACT_ROLLUP)), 1.0)

    def test_rollup_total_disagrees(self):
        rollup = list(EXACT_ROLLUP)
        rollup[0] = rollup[0].replace(",2400,", ",2401,")
        # Both 1:4 rowwise points fail; the other four validate.
        self.assertEqual(ok_share(report(EXACT_ROWS, rollup)), 4 / 6)

    def test_rollup_missing(self):
        self.assertEqual(ok_share(HEADER + "".join(r + "\n" for r in EXACT_ROWS)), 0.0)

    def test_sampled_rollup_rounding_tolerated(self):
        expected = [r.split(",") for r in SAMPLED_ROWS]
        self.assertTrue(all(sweepcheck.validate_points(SAMPLED, expected)))

    def test_exact_accesses_must_match_the_footprint(self):
        rows = list(EXACT_ROWS)
        rows[0] = rows[0].replace(",80", ",81")
        rollup = list(EXACT_ROLLUP)
        rollup[0] = "tiny,1:4,rowwise,b,4,16,exact,3,2,2400,201,12864"
        self.assertEqual(ok_share(report(rows, rollup)), 5 / 6)

    def test_out_of_order_rows(self):
        rows = [EXACT_ROWS[1], EXACT_ROWS[0]] + EXACT_ROWS[2:]
        self.assertEqual(ok_share(report(rows, EXACT_ROLLUP)), 4 / 6)


def span(name, ident, parent, t0, t1, **attrs):
    return {"name": name, "id": ident, "parent": parent, "t0_ns": t0 * 1e9, "t1_ns": t1 * 1e9,
            "attrs": attrs}


class TraceTest(unittest.TestCase):
    SPANS = [
        span("sweep.expand", -1, -1, 0.0, 0.5, points=4, unique=2),
        span("point", 0, -1, 1.0, 9.0),
        span("setup", 0, 1, 1.0, 2.0, problem="a"),
        span("emit", 0, 1, 2.0, 2.5, static_insts=100),
        span("fsim", 0, 1, 2.5, 4.5, insts=1000),
        span("check", 0, 1, 4.5, 5.0),
        span("timing", 0, 1, 5.0, 9.0, insts=1000, cycles=2000, v2s_moves=5,
             dispatch_stall_cycles=7, mispredicts=1, data_accesses=50, dram_lines=20,
             ifetch_lines=3),
        span("point", 1, -1, 9.0, 13.0),
        span("setup", 1, 7, 9.0, 10.0, problem="a"),
        span("emit", 1, 7, 10.0, 10.5, static_insts=100),
        span("fsim", 1, 7, 10.5, 11.0, insts=1000),
        span("timing", 1, 7, 11.0, 13.0, insts=1000, cycles=3000, v2s_moves=5,
             dispatch_stall_cycles=7, mispredicts=1, data_accesses=50, dram_lines=20,
             ifetch_lines=3),
        span("store.put", -1, -1, 13.0, 13.25),
        span("store.replay", -1, -1, 13.25, 13.5, records=2, bytes=90),
        span("report", -1, -1, 13.5, 14.0, rows=4),
    ]

    def test_self_time_is_span_minus_children(self):
        own = sweepcheck.self_times(self.SPANS)
        self.assertAlmostEqual(own[1], 0.0)  # children cover the point
        self.assertAlmostEqual(own[6], 4.0)  # leaves keep their duration

    def test_layer_split(self):
        m, points_ms = sweepcheck.layer_metrics(self.SPANS, untraced_wall_s=10.0)
        self.assertEqual(m["sweep.points"], 4)
        self.assertEqual(m["sweep.unique_share"], 0.5)
        self.assertEqual(m["setup.calls"], 2)
        self.assertEqual(m["setup.distinct_share"], 0.5)
        self.assertAlmostEqual(m["setup.s"], 2.0)
        self.assertAlmostEqual(m["emit.s"], 1.0)
        self.assertAlmostEqual(m["timing.s"], 5.0)  # 6 s of run_exact less emit
        self.assertAlmostEqual(m["setup.share"] + m["emit.share"] + m["timing.share"], 1.0)
        self.assertAlmostEqual(m["fsim.share"], 2.5 / 5.0)
        self.assertAlmostEqual(m["fsim.mips"], 2000 / 2.5 / 1e6)
        self.assertAlmostEqual(m["timing.ipc"], 2000 / 5000)
        self.assertAlmostEqual(m["mem.dram_lines_per_kinst"], 40 / 2.0)
        self.assertEqual(sorted(points_ms), [3000.0, 5000.0])
        self.assertEqual(m["point.p50_ms"], 3000.0)
        # Sweep-equivalent traced work: expand + setup + run_exact + store put + report.
        self.assertAlmostEqual(m["trace.overhead_pct"], (0.5 + 2 + 6 + 0.25 + 0.5 - 10) / 10 * 100)


if __name__ == "__main__":
    unittest.main()
