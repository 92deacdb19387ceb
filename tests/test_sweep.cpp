// Sweep engine: spec parsing/validation, deterministic grid expansion,
// duplicate-point deduplication, cancellation, and stable CSV report
// emission.
#include "core/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/result_store.h"
#include "core/rollup.h"
#include "core/runner.h"

namespace indexmac::core {
namespace {

constexpr const char* kTinySpec = R"({
  "name": "unit",
  "workloads": ["tiny"],
  "sparsities": ["1:4"],
  "algorithms": ["rowwise", "indexmac"],
  "unroll": [4],
  "mode": "exact",
  "seed": 7
})";

TEST(SweepSpec, ParsesFieldsAndDefaults) {
  const SweepSpec spec = parse_sweep_spec(kTinySpec);
  EXPECT_EQ(spec.name, "unit");
  ASSERT_EQ(spec.suites.size(), 1u);
  EXPECT_EQ(spec.suites[0], "tiny");
  ASSERT_EQ(spec.sparsities.size(), 1u);
  EXPECT_EQ(spec.sparsities[0], sparse::kSparsity14);
  EXPECT_EQ(spec.mode, SweepMode::kExact);
  EXPECT_EQ(spec.seed, 7u);
  // Defaults left untouched.
  EXPECT_EQ(spec.dataflows, std::vector<kernels::Dataflow>{kernels::Dataflow::kBStationary});
  EXPECT_EQ(spec.tile_rows, std::vector<unsigned>{16});

  const SweepSpec minimal = parse_sweep_spec(R"({"name": "m", "workloads": ["tiny"]})");
  EXPECT_EQ(minimal.mode, SweepMode::kSampled);
  EXPECT_TRUE(minimal.sparsities.empty());  // suite defaults apply at expansion
  ASSERT_EQ(minimal.algorithms.size(), 2u);
  // tiny's defaults are 1:4 and 2:4: every layer at the first, then every
  // layer at the second.
  const auto points = expand_sweep(minimal);
  ASSERT_EQ(points.size(), 12u);  // 3 layers x 2 sparsities x 2 algorithms
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].sp, i < 6 ? sparse::kSparsity14 : sparse::kSparsity24) << i;
  EXPECT_EQ(points[6].workload, "tiny.square");
}

TEST(SweepSpec, RejectsBadDocuments) {
  // Unknown keys (typo protection), suites, algorithms, empty grids.
  EXPECT_THROW((void)parse_sweep_spec(R"({"name": "x", "workload": ["tiny"]})"), SimError);
  EXPECT_THROW((void)parse_sweep_spec(R"({"name": "x", "workloads": ["nope"]})"), SimError);
  EXPECT_THROW((void)parse_sweep_spec(R"({"name": "x", "workloads": []})"), SimError);
  EXPECT_THROW(
      (void)parse_sweep_spec(R"({"name": "x", "workloads": ["tiny"], "algorithms": ["fast"]})"),
      SimError);
  EXPECT_THROW(
      (void)parse_sweep_spec(R"({"name": "x", "workloads": ["tiny"], "mode": "bogus"})"),
      SimError);
  EXPECT_THROW(
      (void)parse_sweep_spec(R"({"name": "x", "workloads": ["tiny"], "dataflows": ["d"]})"),
      SimError);
  EXPECT_THROW((void)parse_sweep_spec(R"({"workloads": ["tiny"]})"), SimError);  // no name
  // Reports write the spec name unquoted, so it must be one or more ASCII
  // letters, digits, '.', '_' or '-'; the error names it.
  const std::pair<const char*, const char*> bad_names[] = {
      {R"("a\nb")", "a\nb"}, {R"("a b,c")", "a b,c"}, {R"("")", ""}, {R"("x/y")", "x/y"}};
  for (const auto& [json, name] : bad_names) {
    SCOPED_TRACE(json);
    try {
      (void)parse_sweep_spec(std::string(R"({"name": )") + json + R"(, "workloads": ["tiny"]})");
      ADD_FAILURE() << "accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("sweep spec: name \"" + std::string(name) + "\""),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(parse_sweep_spec(R"({"name": "fig4_6-exact.v2", "workloads": ["tiny"]})").name,
            "fig4_6-exact.v2");
  EXPECT_THROW((void)parse_sweep_spec_file("/nonexistent/spec.json"), SimError);
  // Exact points never read the sampling controls, and their cache keys
  // leave them out, so a spec carrying one would run like one without it.
  for (const std::string control : {R"("sample_rows": 5)", R"("sample_full_strips": 2)"})
    EXPECT_THROW((void)parse_sweep_spec(
                     R"({"name": "x", "workloads": ["tiny"], "mode": "exact", )" + control + "}"),
                 SimError)
        << control;
}

TEST(SweepSpec, EngineKeyIsAcceptedAndIgnored) {
  // Kept for old specs: both values it ever took render the same bytes as
  // the spec without the key, and any other value is still rejected.
  const auto sweep = [](const std::string& text) {
    const SweepSpec spec = parse_sweep_spec(text);
    return run_sweep(spec, expand_sweep(spec), 2);
  };
  const SweepReport plain = sweep(kTinySpec);
  const auto with_engine = [](const std::string& engine) {
    std::string text = kTinySpec;
    text.insert(text.find('{') + 1, "\n  \"engine\": \"" + engine + "\",");
    return text;
  };
  for (const char* engine : {"interp", "threaded"}) {
    SCOPED_TRACE(engine);
    const SweepReport report = sweep(with_engine(engine));
    EXPECT_EQ(report_to_csv(report), report_to_csv(plain));
  }
  EXPECT_THROW((void)parse_sweep_spec(with_engine("jit")), SimError);
}

TEST(SweepSpec, ProcessorOverridesApply) {
  const SweepSpec spec = parse_sweep_spec(R"({
    "name": "p",
    "workloads": ["tiny"],
    "processor": {"vector.mac_latency": 9, "memory.dram_latency": 250}
  })");
  EXPECT_EQ(spec.processor.vector.mac_latency, 9u);
  EXPECT_EQ(spec.processor.memory.dram_latency, 250u);
  EXPECT_THROW((void)parse_sweep_spec(R"({
    "name": "p", "workloads": ["tiny"], "processor": {"warp.size": 32}
  })"),
               SimError);
}

TEST(SweepSpec, RejectsOutOfRangeGridValues) {
  // Values every kernel generator documents as unsupported fail at parse
  // time, before any simulation is spent.
  EXPECT_THROW(
      (void)parse_sweep_spec(R"({"name": "x", "workloads": ["tiny"], "unroll": [1, 8]})"),
      SimError);
  EXPECT_THROW(
      (void)parse_sweep_spec(R"({"name": "x", "workloads": ["tiny"], "unroll": [0]})"),
      SimError);
  EXPECT_THROW(
      (void)parse_sweep_spec(R"({"name": "x", "workloads": ["tiny"], "tile_rows": [32]})"),
      SimError);
  // The sampled runner simulates at least one full strip and one row
  // group, so 0 would run exactly like 1 under a different cache key.
  EXPECT_THROW((void)parse_sweep_spec(
                   R"({"name": "x", "workloads": ["tiny"], "sample_full_strips": 0})"),
               SimError);
  EXPECT_THROW(
      (void)parse_sweep_spec(R"({"name": "x", "workloads": ["tiny"], "sample_rows": 0})"),
      SimError);
  // The sampled runner documents sparse-kernels-only.
  EXPECT_THROW((void)parse_sweep_spec(
                   R"({"name": "x", "workloads": ["tiny"], "algorithms": ["dense"]})"),
               SimError);
  const SweepSpec dense_exact = parse_sweep_spec(
      R"({"name": "x", "workloads": ["tiny"], "algorithms": ["dense"], "mode": "exact"})");
  EXPECT_EQ(dense_exact.algorithms[0], Algorithm::kDenseRowwise);
  // ... and extrapolates B-stationary strips only. An unknown dataflow is
  // still reported as unknown.
  for (const auto& [dataflows, message] :
       {std::pair{R"(["a", "b"])", R"(sampled mode supports dataflow "b" only (drop "a")"},
        std::pair{R"(["b", "c"])", R"((drop "c" or use mode "exact"))"},
        std::pair{R"(["d"])", R"(unknown dataflow "d")"}}) {
    SCOPED_TRACE(dataflows);
    try {
      (void)parse_sweep_spec(
          std::string(R"({"name": "dfa", "workloads": ["tiny"], "mode": "sampled", "dataflows": )") +
          dataflows + "}");
      ADD_FAILURE() << "accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
    }
  }
  // Processor overrides the timing model cannot build fail here, naming the
  // key and value: issue ports count in 8 bits, slot pools allocate one
  // entry per slot, and the L2's set count must be a power of two.
  const std::pair<const char*, const char*> bad_overrides[] = {
      {R"("scalar.issue_width": 300)", R"("scalar.issue_width" must be in [1, 255], got 300)"},
      {R"("memory.l2_size_kib": 3)", R"("memory.l2_size_kib" must be a power of two, got 3)"},
      {R"("memory.l2_size_kib": 48)", R"("memory.l2_size_kib" must be a power of two, got 48)"},
      {R"("memory.l2_size_kib": 2147483648)",
       R"("memory.l2_size_kib" must be in [1, 1048576], got 2147483648)"},
      {R"("vector.queue_entries": 4294967295)",
       R"("vector.queue_entries" must be in [1, 65536], got 4294967295)"},
      {R"("scalar.rob_entries": 4294967295)",
       R"("scalar.rob_entries" must be in [1, 65536], got 4294967295)"},
      {R"("scalar.lsq_entries": 65537)",
       R"("scalar.lsq_entries" must be in [1, 65536], got 65537)"},
      {R"("vector.load_queues": 65537)",
       R"("vector.load_queues" must be in [1, 65536], got 65537)"},
      {R"("vector.store_queues": 65537)",
       R"("vector.store_queues" must be in [1, 65536], got 65537)"},
      {R"("vector.mac_latency": 0)", R"("vector.mac_latency" must be in [1, 4294967295], got 0)"}};
  for (const auto& [override_json, message] : bad_overrides) {
    SCOPED_TRACE(override_json);
    try {
      (void)parse_sweep_spec(std::string(R"({"name": "x", "workloads": ["tiny"], "processor": {)") +
                             override_json + "}}");
      ADD_FAILURE() << "accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
    }
  }
  // Each bound itself parses.
  const SweepSpec at_bounds = parse_sweep_spec(R"({"name": "x", "workloads": ["tiny"],
    "processor": {"scalar.issue_width": 255, "memory.l2_size_kib": 1048576,
                  "scalar.rob_entries": 65536, "vector.queue_entries": 65536}})");
  EXPECT_EQ(at_bounds.processor.scalar.issue_width, 255u);
  EXPECT_EQ(at_bounds.processor.memory.l2.size_bytes, std::uint64_t{1} << 30);
  EXPECT_EQ(at_bounds.processor.scalar.rob_entries, 65536u);
  EXPECT_EQ(at_bounds.processor.vector.queue_entries, 65536u);
  // A value listed twice would run and print each of its points twice;
  // "01:4" is 1:4 spelt another way.
  for (const char* grid :
       {R"("workloads": ["tiny", "tiny"])", R"("sparsities": ["1:4", "2:4", "1:4"])",
        R"("sparsities": ["1:4", "01:4"])", R"("algorithms": ["rowwise", "rowwise"])",
        R"("unroll": [4, 4])", R"("dataflows": ["b", "b"])", R"("tile_rows": [8, 16, 8])"}) {
    SCOPED_TRACE(grid);
    const std::string key(grid, std::string_view(grid).find(':'));
    const std::string workloads = key == R"("workloads")" ? "" : R"("workloads": ["tiny"], )";
    try {
      (void)parse_sweep_spec(R"({"name": "x", "mode": "exact", )" + workloads + grid + "}");
      ADD_FAILURE() << "accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(key + " lists "), std::string::npos) << e.what();
    }
  }
}

TEST(SweepSpec, RejectsIntegersAbove32Bits) {
  // These fields are 32-bit: a larger value must fail, not wrap into a
  // different setting (4294967300 used to run as unroll 4, and a 2^32
  // override passed the "positive" check and then became 0).
  const auto spec_with = [](const std::string& field) {
    return R"({"name": "x", "workloads": ["tiny"], )" + field + "}";
  };
  for (const char* big : {"4294967296", "4294967300"}) {
    SCOPED_TRACE(big);
    const std::string v = big;
    for (const std::string& field :
         {R"("unroll": [)" + v + "]", R"("tile_rows": [)" + v + "]", R"("seed": )" + v,
          R"("sample_rows": )" + v, R"("sample_full_strips": )" + v})
      EXPECT_THROW((void)parse_sweep_spec(spec_with(field)), SimError) << field;
    for (const char* key :
         {"scalar.issue_width", "scalar.rob_entries", "scalar.lsq_entries",
          "scalar.mispredict_penalty", "vector.queue_entries", "vector.load_queues",
          "vector.store_queues", "vector.mac_latency", "vector.alu_latency",
          "vector.dispatch_latency", "vector.to_scalar_latency", "memory.l2_size_kib",
          "memory.l2_hit_latency", "memory.dram_latency", "memory.dram_line_occupancy"})
      EXPECT_THROW((void)parse_sweep_spec(spec_with(R"("processor": {")" + std::string(key) +
                                                    R"(": )" + v + "}")),
                   SimError)
          << key;
  }
  // The largest 32-bit value still parses where the field allows it.
  const SweepSpec max = parse_sweep_spec(spec_with(
      R"("seed": 4294967295, "sample_rows": 4294967295, "sample_full_strips": 4294967295,
         "processor": {"memory.dram_latency": 4294967295})"));
  EXPECT_EQ(max.seed, 4294967295u);
  EXPECT_EQ(max.sample.sample_rows, 4294967295u);
  EXPECT_EQ(max.sample.sample_full_strips, 4294967295u);
  EXPECT_EQ(max.processor.memory.dram_latency, 4294967295u);
}

TEST(SweepExpansion, SkipsStructurallyUnsupportedCells) {
  // A mixed ablation grid stays expressible: indexmac exists only
  // B-stationary and the dense baseline only at unroll 1 / one dataflow,
  // so those cells are dropped instead of aborting the sweep mid-run.
  const SweepSpec spec = parse_sweep_spec(R"({
    "name": "mixed",
    "workloads": ["tiny"],
    "sparsities": ["1:4"],
    "algorithms": ["rowwise", "indexmac", "dense"],
    "dataflows": ["a", "b", "c"],
    "unroll": [1, 4],
    "mode": "exact"
  })");
  const auto points = expand_sweep(spec);
  // Per workload: rowwise 3 dataflows x 2 unrolls + indexmac {b} x 2 +
  // dense {b} x {1} = 6 + 2 + 1 = 9; times 3 tiny workloads.
  ASSERT_EQ(points.size(), 27u);
  for (const SweepPoint& p : points) {
    if (p.config.algorithm == Algorithm::kIndexmac) {
      EXPECT_EQ(p.config.kernel.dataflow, kernels::Dataflow::kBStationary);
    }
    if (p.config.algorithm == Algorithm::kDenseRowwise) {
      EXPECT_EQ(p.config.kernel.unroll, 1u);
      EXPECT_EQ(p.config.kernel.dataflow, kernels::Dataflow::kBStationary);
    }
  }
  // The filtered grid runs to completion (this aborted mid-sweep before
  // cells were filtered).
  const SweepReport report = run_sweep(spec, points, 2);
  EXPECT_EQ(report.rows.size(), 27u);
}

TEST(SweepExpansion, Algorithm4ExpandsBStationaryOnly) {
  const SweepSpec spec = parse_sweep_spec(R"({
    "name": "alg4-mixed",
    "workloads": ["tiny"],
    "sparsities": ["1:4"],
    "algorithms": ["rowwise", "indexmac4"],
    "dataflows": ["a", "b", "c"],
    "unroll": [1, 4],
    "mode": "exact"
  })");
  const auto points = expand_sweep(spec);
  // Per workload: rowwise 3 dataflows x 2 unrolls + indexmac4 {b} x 2 = 8;
  // times 3 tiny workloads.
  ASSERT_EQ(points.size(), 24u);
  std::size_t alg4 = 0;
  for (const SweepPoint& p : points)
    if (p.config.algorithm == Algorithm::kIndexmac4) {
      ++alg4;
      EXPECT_EQ(p.config.kernel.dataflow, kernels::Dataflow::kBStationary);
    }
  EXPECT_EQ(alg4, 6u);
  const SweepReport report = run_sweep(spec, points, 2);
  EXPECT_EQ(report.rows.size(), 24u);
}

TEST(SweepExpansion, SsrExpandsBStationaryUnrollOneOnly) {
  // The streaming family's descriptor pins B-stationary / unroll 1; every
  // other cell of a mixed grid is skipped, not an error.
  const SweepSpec spec = parse_sweep_spec(R"({
    "name": "ssr-mixed",
    "workloads": ["tiny"],
    "sparsities": ["1:4"],
    "algorithms": ["rowwise", "ssr"],
    "dataflows": ["a", "b", "c"],
    "unroll": [1, 4],
    "mode": "exact"
  })");
  const auto points = expand_sweep(spec);
  // Per workload: rowwise 3 dataflows x 2 unrolls + ssr {b} x {1} = 7;
  // times 3 tiny workloads.
  ASSERT_EQ(points.size(), 21u);
  std::size_t ssr = 0;
  for (const SweepPoint& p : points)
    if (p.config.algorithm == Algorithm::kSsr) {
      ++ssr;
      EXPECT_EQ(p.config.kernel.dataflow, kernels::Dataflow::kBStationary);
      EXPECT_EQ(p.config.kernel.unroll, 1u);
    }
  EXPECT_EQ(ssr, 3u);
  const SweepReport report = run_sweep(spec, points, 2);
  EXPECT_EQ(report.rows.size(), 21u);
}

TEST(SweepExpansion, DeterministicOrderAndCount) {
  const SweepSpec spec = parse_sweep_spec(R"({
    "name": "grid",
    "workloads": ["tiny"],
    "sparsities": ["1:4", "2:4"],
    "algorithms": ["rowwise", "indexmac"],
    "unroll": [1, 4],
    "mode": "exact"
  })");
  const auto points = expand_sweep(spec);
  // 3 workloads x 2 sparsities x 2 algorithms x 2 unrolls.
  ASSERT_EQ(points.size(), 24u);
  // Order: sparsity-major, then workload, algorithm, unroll.
  EXPECT_EQ(points[0].workload, "tiny.square");
  EXPECT_EQ(points[0].sp, sparse::kSparsity14);
  EXPECT_EQ(points[0].config.algorithm, Algorithm::kRowwiseSpmm);
  EXPECT_EQ(points[0].config.kernel.unroll, 1u);
  EXPECT_EQ(points[1].config.kernel.unroll, 4u);
  EXPECT_EQ(points[2].config.algorithm, Algorithm::kIndexmac);
  EXPECT_EQ(points[12].sp, sparse::kSparsity24);
  // Expansion is a pure function of the spec.
  const auto again = expand_sweep(spec);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].cache_key(spec), again[i].cache_key(spec));
}

TEST(SweepPointKey, DistinguishesEveryKnob) {
  SweepSpec spec = parse_sweep_spec(kTinySpec);
  const auto points = expand_sweep(spec);
  SweepPoint p = points[0];
  const std::string base = p.cache_key(spec);

  SweepPoint q = p;
  q.dims.cols_b += 16;
  EXPECT_NE(q.cache_key(spec), base);
  q = p;
  q.sp = sparse::kSparsity24;
  EXPECT_NE(q.cache_key(spec), base);
  q = p;
  q.config.kernel.unroll = 2;
  EXPECT_NE(q.cache_key(spec), base);
  q = p;
  q.config.tile_rows = 8;
  EXPECT_NE(q.cache_key(spec), base);

  // Spec-level inputs the measurement depends on: seed and processor.
  SweepSpec other = spec;
  other.seed = 99;
  EXPECT_NE(p.cache_key(other), base);
  other = spec;
  other.processor.vector.mac_latency += 1;
  EXPECT_NE(p.cache_key(other), base);

  // Workload naming must NOT affect the key (identical shapes share runs).
  q = p;
  q.suite = "renamed";
  q.workload = "alias";
  EXPECT_EQ(q.cache_key(spec), base);
}

TEST(SweepRun, MatchesDirectRunnerResults) {
  const SweepSpec spec = parse_sweep_spec(kTinySpec);
  const SweepReport report = run_sweep(spec, expand_sweep(spec), /*threads=*/2);
  ASSERT_EQ(report.rows.size(), 6u);  // 3 workloads x 2 algorithms
  EXPECT_EQ(report.spec_name, "unit");
  EXPECT_NE(report.spec_hash, 0u);
  for (const SweepRow& row : report.rows) {
    const auto problem = SpmmProblem::random(row.point.dims, row.point.sp, spec.seed);
    const auto exact = run_exact(problem, row.point.config, spec.processor);
    EXPECT_EQ(row.cycles, static_cast<double>(exact.stats.cycles)) << row.point.workload;
    EXPECT_EQ(row.data_accesses, exact.data_accesses()) << row.point.workload;
  }
}

TEST(SweepRun, DeduplicatesWithinASweepAndResumesAcrossSweeps) {
  // Duplicate suite entry: every point appears twice, but each unique
  // measurement must be simulated (and journaled) exactly once.
  SweepSpec spec = parse_sweep_spec(kTinySpec);
  spec.suites = {"tiny", "tiny"};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) / "sweep_dedup";
  std::filesystem::remove_all(dir);

  ResultStore store(dir.string());
  const SweepReport first = run_sweep(spec, points, 2, &store);
  ASSERT_EQ(first.rows.size(), 12u);
  EXPECT_EQ(store.appended(), 6u);  // unique measurements only
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(first.rows[i].cycles, first.rows[i + 6].cycles);
    EXPECT_EQ(first.rows[i].data_accesses, first.rows[i + 6].data_accesses);
  }

  // Resuming serves every unique key from the store (no new records) and
  // reproduces identical rows.
  const SweepReport second = run_sweep(spec, points, 2, &store, /*resume=*/true);
  EXPECT_EQ(store.appended(), 6u);
  ASSERT_EQ(second.rows.size(), first.rows.size());
  for (std::size_t i = 0; i < first.rows.size(); ++i)
    EXPECT_EQ(second.rows[i].cycles, first.rows[i].cycles);
  EXPECT_EQ(second.spec_hash, first.spec_hash);
  EXPECT_THROW((void)run_sweep(spec, points, 2, nullptr, /*resume=*/true), SimError);
}

TEST(SweepRun, SampledModeUsesSampleControls) {
  const SweepSpec spec = parse_sweep_spec(R"({
    "name": "sampled",
    "workloads": ["tiny"],
    "sparsities": ["1:4"],
    "algorithms": ["indexmac"],
    "mode": "sampled",
    "sample_rows": 8,
    "sample_full_strips": 2
  })");
  EXPECT_EQ(spec.sample.sample_rows, 8u);
  EXPECT_EQ(spec.sample.sample_full_strips, 2u);
  const SweepReport report = run_sweep(spec, expand_sweep(spec), /*threads=*/2);
  ASSERT_EQ(report.rows.size(), 3u);
  for (const SweepRow& row : report.rows) {
    EXPECT_GT(row.cycles, 0.0);
    EXPECT_GT(row.data_accesses, 0u);
    EXPECT_EQ(row.point.mode, SweepMode::kSampled);
  }
}

TEST(SweepRun, SimulatesEachDistinctMiniatureOnceAtAnyThreadCount) {
  // With one full strip sampled, the 2- and 4-strip layers share one
  // 16x512x16 miniature and the two ragged layers one 16x512x20 miniature:
  // 8 points (4 layers x 2 algorithms), 4 miniatures. On 4 threads a
  // layer's points start beside those of the layer sharing its miniatures.
  // run_sweep measures the points it is given and never looks a suite up,
  // so they are built here in expansion order, not registered.
  const std::pair<const char*, kernels::GemmDims> layers[] = {{"two-strips", {16, 512, 32}},
                                                              {"four-strips", {48, 512, 64}},
                                                              {"ragged", {16, 512, 20}},
                                                              {"ragged-wide", {32, 512, 52}}};
  std::vector<SweepPoint> points;
  for (const auto& [workload, dims] : layers)
    for (const Algorithm alg : {Algorithm::kRowwiseSpmm, Algorithm::kIndexmac}) {
      SweepPoint p;
      p.suite = "shared-miniatures";
      p.workload = workload;
      p.dims = dims;
      p.sp = sparse::kSparsity14;
      p.config.algorithm = alg;
      p.config.kernel.unroll = 4;
      points.push_back(p);
    }
  // The miniature memo is process-wide, so each thread count gets a DRAM
  // latency no other test uses: its first sweep starts with no miniature.
  const auto spec_at = [](unsigned dram_latency) {
    return parse_sweep_spec(R"({"name": "shared", "workloads": ["tiny"],
        "algorithms": ["rowwise", "indexmac"], "unroll": [4], "mode": "sampled",
        "sample_full_strips": 1, "processor": {"memory.dram_latency": )" +
                            std::to_string(dram_latency) + "}}");
  };
  struct Swept {
    std::string csv;
    std::uint64_t points;
    std::uint64_t simulations;
  };
  const auto sweep = [&points](const SweepSpec& spec, unsigned threads) {
    const MiniatureCounts before = miniature_counts();
    const SweepReport report = run_sweep(spec, points, threads);
    const MiniatureCounts after = miniature_counts();
    for (const SweepRow& row : report.rows) {
      const MiniatureSpec mini =
          miniature_spec(row.point.dims, row.point.sp, row.point.config, spec.processor,
                         spec.sample);
      EXPECT_EQ(row.cycles, extrapolate(mini, measure_miniature(mini), row.point.dims).cycles)
          << row.point.workload;
    }
    return Swept{report_to_csv(report), after.lookups - before.lookups,
                 after.simulations - before.simulations};
  };
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepSpec spec = spec_at(threads == 1 ? 131 : 137);
    const Swept cold = sweep(spec, threads);
    EXPECT_EQ(cold.points, 8u);
    EXPECT_EQ(cold.simulations, 4u);
    // At the other thread count every miniature is already measured.
    const Swept warm = sweep(spec, threads == 1 ? 4 : 1);
    EXPECT_EQ(warm.points, 8u);
    EXPECT_EQ(warm.simulations, 0u);
    EXPECT_EQ(warm.csv, cold.csv);
  }
}

// Graceful sweep cancellation: run_sweep's cancel flag skips queued
// points, journals nothing wrong, and leaves the store a valid resume base
// whose completed report is byte-identical to an uninterrupted sweep. A
// cancel that lands mid-batch journals exactly the finished jobs, and
// never hides a real job error.

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sweep_cancel_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// 3 tiny workloads x 2 algorithms = 6 exact points.
constexpr const char* kUnitSpec = R"({
  "name": "cancel-unit",
  "workloads": ["tiny"],
  "sparsities": ["1:4"],
  "algorithms": ["rowwise", "indexmac"],
  "unroll": [4],
  "mode": "exact",
  "seed": 7
})";

std::string reference_csv() {
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  return core::report_to_csv(core::run_sweep(spec, core::expand_sweep(spec), /*threads=*/1));
}

TEST(SweepCancel, PresetCancelSkipsEverythingButJournalsNothingWrong) {
  const std::string dir = fresh_dir("cancel");
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  const std::vector<core::SweepPoint> points = core::expand_sweep(spec);
  core::ResultStore store(dir + "/store");
  std::atomic<bool> cancel{true};
  EXPECT_THROW((void)core::run_sweep(spec, points, 1, &store, /*resume=*/true, &cancel),
               core::BatchCancelled);
  // Nothing ran, nothing was journaled — and the store is still a valid
  // resume base: clearing the flag completes the remaining (all) points.
  EXPECT_EQ(store.appended(), 0u);
  cancel.store(false);
  const core::SweepReport resumed =
      core::run_sweep(spec, points, 1, &store, /*resume=*/true, &cancel);
  EXPECT_EQ(core::report_to_csv(resumed), reference_csv());
  EXPECT_EQ(store.appended(), 6u);
}

TEST(SweepCancel, NullCancelBehavesExactlyAsBefore) {
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  const std::vector<core::SweepPoint> points = core::expand_sweep(spec);
  const core::SweepReport report = core::run_sweep(spec, points, 2, nullptr, false, nullptr);
  EXPECT_EQ(core::report_to_csv(report), reference_csv());
}

TEST(SweepCancel, MidBatchCancelJournalsExactlyTheFinishedJob) {
  // One worker, and the first job's completion raises the flag: the job
  // that finished is journaled, every later one is skipped.
  const std::string dir = fresh_dir("mid_batch");
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  const std::vector<core::SweepPoint> points = core::expand_sweep(spec);
  const std::vector<std::string> keys = core::grid_keys(spec, points);
  std::vector<core::BatchJob> jobs;
  for (const core::SweepPoint& p : points) jobs.push_back(core::point_job(spec, p));
  {
    core::ResultStore store(dir);
    std::atomic<bool> cancel{false};
    EXPECT_THROW((void)core::run_batch(
                     jobs, 1,
                     [&](std::size_t i, const core::BatchResult& r) {
                       store.put(keys[i], core::StoredResult{r.cycles, r.data_accesses});
                       cancel.store(true);
                     },
                     &cancel),
                 core::BatchCancelled);
    EXPECT_EQ(store.appended(), 1u);
    EXPECT_NE(store.find(keys[0]), nullptr);
  }
  core::ResultStore store(dir);
  EXPECT_EQ(store.loaded(), 1u);
  const core::SweepReport resumed = core::run_sweep(spec, points, 1, &store, /*resume=*/true);
  EXPECT_EQ(core::report_to_csv(resumed), reference_csv());
  EXPECT_EQ(store.appended(), points.size() - 1);
}

TEST(SweepCancel, EarlierJobErrorOutranksMidBatchCancel) {
  // Job 0 fails (unroll 5 is rejected by the kernel generators); job 1
  // finishes and its completion cancels the rest. The error is what the
  // caller must see, not the interrupt it did not ask for.
  const core::SweepSpec spec = core::parse_sweep_spec(kUnitSpec);
  std::vector<core::BatchJob> jobs;
  for (const core::SweepPoint& p : core::expand_sweep(spec))
    jobs.push_back(core::point_job(spec, p));
  jobs[0].config.kernel.unroll = 5;
  std::atomic<bool> cancel{false};
  std::size_t delivered = 0;
  try {
    (void)core::run_batch(
        jobs, 1,
        [&](std::size_t, const core::BatchResult&) {
          ++delivered;
          cancel.store(true);
        },
        &cancel);
    FAIL() << "the failed job must be rethrown";
  } catch (const core::BatchCancelled& e) {
    FAIL() << "the cancel hid job 0's error: " << e.what();
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("unroll"), std::string::npos) << e.what();
  }
  EXPECT_EQ(delivered, 1u);
}

TEST(SweepReportFormats, CsvIsStableAndRoundTrips) {
  const SweepSpec spec = parse_sweep_spec(kTinySpec);
  const SweepReport report = run_sweep(spec, expand_sweep(spec), 2);
  const std::string csv = report_to_csv(report);
  // Emission is deterministic.
  EXPECT_EQ(csv, report_to_csv(report));
  // Exact-mode cycles print as integers (no decimal point in the cycles
  // column; workload names legitimately contain dots).
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // comment
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    const std::size_t accesses_comma = line.rfind(',');
    const std::size_t cycles_comma = line.rfind(',', accesses_comma - 1);
    const std::string cycles = line.substr(cycles_comma + 1, accesses_comma - cycles_comma - 1);
    EXPECT_EQ(cycles.find('.'), std::string::npos) << line;
  }

  const SweepReport parsed = parse_csv_report(csv);
  EXPECT_EQ(parsed.spec_name, report.spec_name);
  EXPECT_EQ(parsed.spec_hash, report.spec_hash);
  ASSERT_EQ(parsed.rows.size(), report.rows.size());
  for (std::size_t i = 0; i < parsed.rows.size(); ++i) {
    EXPECT_EQ(parsed.rows[i].point.workload, report.rows[i].point.workload);
    EXPECT_EQ(parsed.rows[i].point.config.algorithm, report.rows[i].point.config.algorithm);
    EXPECT_EQ(parsed.rows[i].cycles, report.rows[i].cycles);
    EXPECT_EQ(parsed.rows[i].data_accesses, report.rows[i].data_accesses);
  }
  // The re-rendered parse is byte-identical: full round trip.
  EXPECT_EQ(report_to_csv(parsed), csv);
}

TEST(SweepReportFormats, ParserRejectsCorruptCsv) {
  EXPECT_THROW((void)parse_csv_report(""), SimError);
  EXPECT_THROW((void)parse_csv_report("not,a,header\n"), SimError);
  const SweepSpec spec = parse_sweep_spec(kTinySpec);
  const std::string csv = report_to_csv(run_sweep(spec, expand_sweep(spec), 2));
  EXPECT_THROW((void)parse_csv_report(csv + "short,row\n"), SimError);
  EXPECT_THROW((void)parse_csv_report(csv + "a,b,1,x,1,1,1:4,rowwise,b,4,16,exact,1,1\n"),
               SimError);
  // Bad cycles fields fail with SimError, including from_chars-rejected
  // partial numbers.
  EXPECT_THROW((void)parse_csv_report(csv + "a,b,1,1,1,1,1:4,rowwise,b,4,16,exact,1x,1\n"),
               SimError);
  EXPECT_THROW((void)parse_csv_report(csv + "a,b,1,1,1,1,1:4,rowwise,b,4,16,exact,,1\n"),
               SimError);
  // Integer fields are bounded: a 32-bit field past 2^32-1 used to wrap
  // into a different point (unroll 4294967300 read as 4), and a 64-bit
  // field past 2^64-1 to overflow.
  for (const char* row :
       {"tiny,tiny.square,1,16,64,32,1:4,rowwise,b,4294967300,16,exact,17084,1024",
        "tiny,tiny.square,4294967297,16,64,32,1:4,rowwise,b,4,16,exact,1,1",
        "tiny,tiny.square,1,16,64,32,1:4,rowwise,b,4,4294967296,exact,1,1",
        "a,b,1,100000000000000000000,1,1,1:4,rowwise,b,4,16,exact,1,1",
        "a,b,1,1,1,1,1:4,rowwise,b,4,16,exact,1,100000000000000000000"})
    EXPECT_THROW((void)parse_csv_report(csv + row + "\n"), SimError) << row;
  const SweepReport widest = parse_csv_report(
      csv + "a,b,4294967295,1,1,1,1:4,rowwise,b,4,16,exact,1,18446744073709551615\n");
  EXPECT_EQ(widest.rows.back().point.count, 4294967295u);
  EXPECT_EQ(widest.rows.back().data_accesses, 18446744073709551615ull);
}

TEST(SweepReportFormats, ParserRejectsCorruptHeaderHash) {
  // Regression: a truncated/garbled header hash used to escape as an
  // uncaught std::invalid_argument / std::out_of_range from std::stoull.
  const SweepSpec spec = parse_sweep_spec(kTinySpec);
  const std::string csv = report_to_csv(run_sweep(spec, expand_sweep(spec), 2));
  const std::size_t hash_at = csv.find("hash=");
  ASSERT_NE(hash_at, std::string::npos);
  const std::size_t eol = csv.find('\n', hash_at);
  const auto with_hash = [&](const std::string& hash) {
    return csv.substr(0, hash_at + 5) + hash + csv.substr(eol);
  };
  for (const char* bad : {"", "zzzz", "12g4", "0x12", " 12",
                          "ffffffffffffffff1" /* 17 digits: used to out_of_range */})
    EXPECT_THROW((void)parse_csv_report(with_hash(bad)), SimError) << "hash=" << bad;
  // Shorter-than-16 but valid hex still parses (forward compat with
  // hand-written files).
  EXPECT_EQ(parse_csv_report(with_hash("ff")).spec_hash, 0xffu);
}

/// Synthetic measured row for rollup unit tests; everything not passed in
/// stays at the grouping defaults (2:4, b-stationary, unroll 4, L=16).
SweepRow rollup_row(const char* suite, const char* workload, unsigned count,
                    Algorithm algorithm, double cycles, std::uint64_t accesses) {
  SweepRow row;
  row.point.suite = suite;
  row.point.workload = workload;
  row.point.count = count;
  row.point.dims = {8, 16, 8};
  row.point.sp = sparse::kSparsity24;
  row.point.config.algorithm = algorithm;
  row.point.mode = SweepMode::kExact;
  row.cycles = cycles;
  row.data_accesses = accesses;
  return row;
}

TEST(Rollup, FoldsCountWeightedNetworkTotals) {
  SweepReport report;
  report.spec_name = "unit";
  report.spec_hash = 0x1234;
  // Two shapes of one network, multiplicities 3 and 2: the rollup answers
  // for all 5 layer instances.
  report.rows.push_back(rollup_row("net", "a", 3, Algorithm::kIndexmac, 100, 40));
  report.rows.push_back(rollup_row("net", "b", 2, Algorithm::kIndexmac, 50, 10));
  const RollupReport rollup = compute_rollup(report);
  EXPECT_EQ(rollup.spec_name, "unit");
  EXPECT_EQ(rollup.spec_hash, 0x1234u);
  ASSERT_EQ(rollup.rows.size(), 1u);
  const RollupRow& r = rollup.rows[0];
  EXPECT_EQ(r.suite, "net");
  EXPECT_EQ(r.layers, 5u);
  EXPECT_EQ(r.workloads, 2u);
  EXPECT_DOUBLE_EQ(r.cycles, 100.0 * 3 + 50.0 * 2);
  EXPECT_EQ(r.data_accesses, 40u * 3 + 10u * 2);
  EXPECT_EQ(r.energy_proxy_bytes(), (40u * 3 + 10u * 2) * 64);
}

TEST(Rollup, SplitsGroupsByEveryKeyField) {
  SweepReport report;
  report.rows.push_back(rollup_row("net", "a", 1, Algorithm::kIndexmac, 10, 1));
  report.rows.push_back(rollup_row("net", "a", 1, Algorithm::kRowwiseSpmm, 20, 2));
  SweepRow other_sp = rollup_row("net", "a", 1, Algorithm::kIndexmac, 30, 3);
  other_sp.point.sp = sparse::kSparsity14;
  report.rows.push_back(other_sp);
  SweepRow other_suite = rollup_row("net2", "a", 1, Algorithm::kIndexmac, 40, 4);
  report.rows.push_back(other_suite);
  SweepRow other_unroll = rollup_row("net", "a", 1, Algorithm::kIndexmac, 50, 5);
  other_unroll.point.config.kernel.unroll = 1;
  report.rows.push_back(other_unroll);
  const RollupReport rollup = compute_rollup(report);
  // Five rows, five distinct groups, first-occurrence order.
  ASSERT_EQ(rollup.rows.size(), 5u);
  EXPECT_EQ(rollup.rows[0].algorithm, Algorithm::kIndexmac);
  EXPECT_EQ(rollup.rows[1].algorithm, Algorithm::kRowwiseSpmm);
  EXPECT_EQ(rollup.rows[2].sp, sparse::kSparsity14);
  EXPECT_EQ(rollup.rows[3].suite, "net2");
  EXPECT_EQ(rollup.rows[4].unroll, 1u);
  for (const RollupRow& r : rollup.rows) EXPECT_EQ(r.workloads, 1u);
}

TEST(Rollup, CsvSectionAppendsAfterPointRowsAndParserStopsAtMarker) {
  const SweepSpec spec = parse_sweep_spec(kTinySpec);
  const SweepReport report = run_sweep(spec, expand_sweep(spec), 2);
  const std::string plain_csv = report_to_csv(report);
  const std::string rollup_csv = rollup_to_csv(compute_rollup(report));
  // The section starts with the marker and renders deterministically.
  EXPECT_EQ(rollup_csv.rfind(kRollupMarkerPrefix, 0), 0u);
  EXPECT_EQ(rollup_csv, rollup_to_csv(compute_rollup(report)));
  // A rollup-bearing CSV parses to exactly the point rows: the parser
  // treats the marker as end-of-data, so merge/report/round-trip all keep
  // working on files written by `sweep --rollup`.
  const SweepReport parsed = parse_csv_report(plain_csv + rollup_csv);
  ASSERT_EQ(parsed.rows.size(), report.rows.size());
  EXPECT_EQ(report_to_csv(parsed), plain_csv);
}

}  // namespace
}  // namespace indexmac::core
