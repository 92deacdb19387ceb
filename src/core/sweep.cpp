#include "core/sweep.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "common/bitutil.h"
#include "common/error.h"
#include "common/format.h"
#include "common/json.h"

namespace indexmac::core {
namespace {

using workloads::parse_sparsity;
using workloads::sparsity_label;

// --- short, CSV-stable identifiers ---------------------------------------

const char* algorithm_id(Algorithm a) { return algorithm_row(a).id; }

kernels::Dataflow parse_dataflow(const std::string& id) {
  if (id == "a") return kernels::Dataflow::kAStationary;
  if (id == "b") return kernels::Dataflow::kBStationary;
  if (id == "c") return kernels::Dataflow::kCStationary;
  raise("unknown dataflow \"" + id + "\" (known: a, b, c)");
}

SweepMode parse_mode(const std::string& id) {
  if (id == "exact") return SweepMode::kExact;
  if (id == "sampled") return SweepMode::kSampled;
  raise("unknown sweep mode \"" + id + "\" (known: exact, sampled)");
}

// --- processor overrides and digest ---------------------------------------

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/// A spec integer bound for a 32-bit field: larger values are rejected,
/// never truncated into a different (and differently keyed) setting.
std::uint32_t as_u32(const JsonValue& v, const char* key) {
  const std::uint64_t n = v.as_uint();
  IMAC_CHECK(n <= kU32Max, std::string("sweep spec: \"") + key +
                               "\" must be at most 4294967295, got " + std::to_string(n));
  return static_cast<std::uint32_t>(n);
}

// The largest overrides the timing model can build: issue ports count a
// cycle's claims in 8 bits, and each slot pool (ROB, LSQ, vector queues)
// holds one entry per slot. The L2 keeps 8 ways of 64 B lines, so its set
// count is a power of two exactly when its size in KiB is.
constexpr std::uint64_t kMaxIssueWidth = 255;
constexpr std::uint64_t kMaxSlotPoolEntries = 65536;
constexpr std::uint64_t kMaxL2SizeKib = 1u << 20;

/// The sweep-overridable processor knobs, addressed by dotted name. A
/// value the model cannot build fails here, naming the key, before any
/// point runs.
void apply_processor_override(timing::ProcessorConfig& p, const std::string& key,
                              std::uint64_t v) {
  const auto in = [&](std::uint64_t max) {
    IMAC_CHECK(v > 0 && v <= max, "processor override \"" + key + "\" must be in [1, " +
                                      std::to_string(max) + "], got " + std::to_string(v));
    return static_cast<unsigned>(v);
  };
  if (key == "scalar.issue_width") p.scalar.issue_width = in(kMaxIssueWidth);
  else if (key == "scalar.rob_entries") p.scalar.rob_entries = in(kMaxSlotPoolEntries);
  else if (key == "scalar.lsq_entries") p.scalar.lsq_entries = in(kMaxSlotPoolEntries);
  else if (key == "scalar.mispredict_penalty") p.scalar.mispredict_penalty = in(kU32Max);
  else if (key == "vector.queue_entries") p.vector.queue_entries = in(kMaxSlotPoolEntries);
  else if (key == "vector.load_queues") p.vector.load_queues = in(kMaxSlotPoolEntries);
  else if (key == "vector.store_queues") p.vector.store_queues = in(kMaxSlotPoolEntries);
  else if (key == "vector.mac_latency") p.vector.mac_latency = in(kU32Max);
  else if (key == "vector.alu_latency") p.vector.alu_latency = in(kU32Max);
  else if (key == "vector.dispatch_latency") p.vector.dispatch_latency = in(kU32Max);
  else if (key == "vector.to_scalar_latency") p.vector.to_scalar_latency = in(kU32Max);
  else if (key == "memory.l2_size_kib") {
    IMAC_CHECK(is_pow2(v), "processor override \"" + key + "\" must be a power of two, got " +
                               std::to_string(v));
    p.memory.l2.size_bytes = in(kMaxL2SizeKib) * std::uint64_t{1024};
  } else if (key == "memory.l2_hit_latency") p.memory.l2.hit_latency = in(kU32Max);
  else if (key == "memory.dram_latency") p.memory.dram_latency = in(kU32Max);
  else if (key == "memory.dram_line_occupancy") p.memory.dram_line_occupancy = in(kU32Max);
  else raise("unknown processor override \"" + key + "\"");
}

std::uint64_t fnv1a(const std::string& data, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void append_cache(std::string& out, const CacheConfig& c) {
  out += std::to_string(c.size_bytes) + "/" + std::to_string(c.ways) + "/" +
         std::to_string(c.line_bytes) + "/" + std::to_string(c.hit_latency) + ";";
}

/// Canonical field-by-field serialization: two configs digest equal iff
/// every timing-relevant parameter matches.
std::string serialize_processor(const timing::ProcessorConfig& p) {
  std::string s = "scalar:";
  for (const unsigned v :
       {p.scalar.fetch_width, p.scalar.issue_width, p.scalar.commit_width, p.scalar.rob_entries,
        p.scalar.lsq_entries, p.scalar.mispredict_penalty, p.scalar.alu_latency,
        p.scalar.mul_latency})
    s += std::to_string(v) + ",";
  s += "vector:";
  for (const unsigned v :
       {p.vector.lanes, p.vector.queue_entries, p.vector.load_queues, p.vector.store_queues,
        p.vector.mac_latency, p.vector.alu_latency, p.vector.slide_latency,
        p.vector.move_latency, p.vector.to_scalar_latency, p.vector.dispatch_latency})
    s += std::to_string(v) + ",";
  s += "mem:";
  append_cache(s, p.memory.l1d);
  append_cache(s, p.memory.l2);
  for (const unsigned v : {p.memory.l2_banks, p.memory.l2_bank_occupancy, p.memory.dram_latency,
                           p.memory.dram_line_occupancy})
    s += std::to_string(v) + ",";
  return s;
}

// --- spec parsing ---------------------------------------------------------

/// The non-empty grid list under `key`, each element read by `read`. A
/// value listed twice is rejected, naming it: the sweep would run and print
/// each of its points twice.
template <typename Read>
auto grid_list(const JsonValue& v, const char* key, Read read) {
  std::vector<std::invoke_result_t<Read, const JsonValue&>> out;
  for (const JsonValue& e : v.as_array()) {
    auto value = read(e);
    IMAC_CHECK(std::ranges::find(out, value) == out.end(),
               std::string("sweep spec: \"") + key + "\" lists " + e.dump() + " twice");
    out.push_back(std::move(value));
  }
  IMAC_CHECK(!out.empty(), std::string("sweep spec: \"") + key + "\" must be non-empty");
  return out;
}

/// A grid list of strings, each through `parse`.
template <typename Parse = std::identity>
auto string_list(const JsonValue& v, const char* key, Parse parse = {}) {
  return grid_list(v, key, [&](const JsonValue& e) { return parse(e.as_string()); });
}

std::vector<unsigned> uint_list(const JsonValue& v, const char* key) {
  return grid_list(v, key, [key](const JsonValue& e) -> unsigned { return as_u32(e, key); });
}

}  // namespace

const char* sweep_mode_name(SweepMode mode) {
  return mode == SweepMode::kExact ? "exact" : "sampled";
}

const char* dataflow_id(kernels::Dataflow dataflow) {
  switch (dataflow) {
    case kernels::Dataflow::kAStationary: return "a";
    case kernels::Dataflow::kBStationary: return "b";
    case kernels::Dataflow::kCStationary: return "c";
  }
  raise("unknown dataflow");
}

SweepSpec parse_sweep_spec(const std::string& json_text) {
  const JsonValue doc = parse_json(json_text);
  IMAC_CHECK(doc.is_object(), "sweep spec: document must be a JSON object");

  static const char* kKnown[] = {"name",     "workloads", "sparsities", "algorithms",
                                 "unroll",   "dataflows", "tile_rows",  "mode",
                                 "engine",   "seed",      "sample_rows",
                                 "sample_full_strips",    "processor"};
  for (const auto& [key, value] : doc.members()) {
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    IMAC_CHECK(known, "sweep spec: unknown key \"" + key + "\"");
  }

  SweepSpec spec;
  spec.name = doc.at("name").as_string();
  workloads::check_name("sweep spec: name", spec.name);
  spec.suites = string_list(doc.at("workloads"), "workloads");
  for (const std::string& s : spec.suites)
    (void)workloads::model_graph(s);  // unknown suites fail at parse time

  if (const JsonValue* v = doc.get("sparsities"))
    spec.sparsities = string_list(*v, "sparsities", parse_sparsity);
  if (const JsonValue* v = doc.get("algorithms"))
    spec.algorithms = string_list(*v, "algorithms", parse_algorithm);
  if (const JsonValue* v = doc.get("unroll")) spec.unrolls = uint_list(*v, "unroll");
  for (const unsigned u : spec.unrolls)
    IMAC_CHECK(u >= 1 && u <= 4,
               "sweep spec: unroll must be in [1,4] (all kernel generators), got " +
                   std::to_string(u));
  if (const JsonValue* v = doc.get("dataflows"))
    spec.dataflows = string_list(*v, "dataflows", parse_dataflow);
  if (const JsonValue* v = doc.get("tile_rows")) spec.tile_rows = uint_list(*v, "tile_rows");
  for (const unsigned t : spec.tile_rows)
    IMAC_CHECK(t >= 1 && t <= 16,
               "sweep spec: tile_rows must be in [1,16] (register-file bound), got " +
                   std::to_string(t));
  if (const JsonValue* v = doc.get("mode")) spec.mode = parse_mode(v->as_string());
  if (const JsonValue* v = doc.get("engine")) {
    // Kept for old specs: a no-op, but a misspelt value is still an error.
    const std::string engine = v->as_string();
    IMAC_CHECK(engine == "interp" || engine == "threaded",
               "sweep spec: unknown engine \"" + engine + "\" (valid: interp, threaded)");
  }
  if (spec.mode == SweepMode::kSampled) {
    for (const Algorithm alg : spec.algorithms) {
      const AlgorithmRow& family = algorithm_row(alg);
      IMAC_CHECK(family.supports_sampled,
                 std::string("sweep spec: sampled mode supports the sparse kernels only (drop \"") +
                     family.id + "\" or use mode \"exact\")");
    }
    // run_sampled extrapolates B-stationary strips only.
    for (const kernels::Dataflow df : spec.dataflows)
      IMAC_CHECK(df == kernels::Dataflow::kBStationary,
                 std::string("sweep spec: sampled mode supports dataflow \"b\" only (drop \"") +
                     dataflow_id(df) + "\" or use mode \"exact\")");
  }
  if (const JsonValue* v = doc.get("seed")) spec.seed = as_u32(*v, "seed");
  // Exact points are keyed without the sampling controls, which they never read.
  if (spec.mode == SweepMode::kExact)
    for (const char* key : {"sample_rows", "sample_full_strips"})
      IMAC_CHECK(doc.get(key) == nullptr, std::string("sweep spec: \"") + key +
                                              "\" has no effect in exact mode (drop it or use "
                                              "mode \"sampled\")");
  if (const JsonValue* v = doc.get("sample_rows"))
    spec.sample.sample_rows = as_u32(*v, "sample_rows");
  if (const JsonValue* v = doc.get("sample_full_strips"))
    spec.sample.sample_full_strips = as_u32(*v, "sample_full_strips");
  // run_sampled simulates at least one full strip and at least one row
  // group, so 0 would run exactly like 1 under a different cache key.
  IMAC_CHECK(spec.sample.sample_full_strips >= 1,
             "sweep spec: \"sample_full_strips\" must be at least 1");
  IMAC_CHECK(spec.sample.sample_rows >= 1, "sweep spec: \"sample_rows\" must be at least 1");
  if (const JsonValue* v = doc.get("processor"))
    for (const auto& [key, value] : v->members())
      apply_processor_override(spec.processor, key, value.as_uint());
  return spec;
}

SweepSpec parse_sweep_spec_file(const std::string& path) {
  std::ifstream file(path);
  IMAC_CHECK(file.good(), "cannot open sweep spec " + path);
  std::stringstream buf;
  buf << file.rdbuf();
  return parse_sweep_spec(buf.str());
}

// --- expansion ------------------------------------------------------------

std::string SweepPoint::cache_key(const SweepSpec& spec) const {
  std::string key = std::string(sweep_mode_name(mode)) + "|" + std::to_string(dims.rows_a) + "x" +
                    std::to_string(dims.k) + "x" + std::to_string(dims.cols_b) + "|" +
                    sparsity_label(sp) + "|" + algorithm_id(config.algorithm) + "|" +
                    dataflow_id(config.kernel.dataflow) + "|u" +
                    std::to_string(config.kernel.unroll) + "|L" +
                    std::to_string(config.tile_rows);
  if (mode == SweepMode::kExact) {
    key += "|seed" + std::to_string(spec.seed);
  } else {
    key += "|sr" + std::to_string(spec.sample.sample_rows) + "|sf" +
           std::to_string(spec.sample.sample_full_strips);
  }
  char proc[20];
  std::snprintf(proc, sizeof proc, "|p%016llx",
                static_cast<unsigned long long>(fnv1a(serialize_processor(spec.processor))));
  key += proc;
  return key;
}

std::vector<SweepPoint> expand_sweep(const SweepSpec& spec) {
  std::vector<SweepPoint> out;
  for (const std::string& suite_name : spec.suites) {
    const workloads::ModelGraph& graph = workloads::model_graph(suite_name);
    const std::vector<sparse::Sparsity>& sparsities =
        spec.sparsities.empty() ? graph.default_sparsities : spec.sparsities;
    for (const sparse::Sparsity sp : sparsities)
      for (const workloads::LayerRecord& layer : graph.layers)
        for (const Algorithm alg : spec.algorithms)
          for (const kernels::Dataflow df : spec.dataflows)
            for (const unsigned unroll : spec.unrolls)
              for (const unsigned tile : spec.tile_rows) {
                // Structurally-unsupported grid cells are skipped, not
                // errors — each family's supports predicate declares its
                // own constraints (B-stationary-only, unroll=1-only, ...).
                // This keeps mixed ablations (e.g. dataflows x several
                // algorithms) expressible without aborting the sweep.
                if (!algorithm_row(alg).supports(df, unroll)) continue;
                SweepPoint p;
                p.suite = graph.name;
                p.workload = layer.name;
                p.count = layer.repeat;
                p.dims = layer.gemm;
                p.sp = sp;
                p.config.algorithm = alg;
                p.config.kernel.unroll = unroll;
                p.config.kernel.dataflow = df;
                p.config.tile_rows = tile;
                p.mode = spec.mode;
                out.push_back(std::move(p));
              }
  }
  IMAC_CHECK(!out.empty(), "sweep spec expands to zero supported points");
  return out;
}

BatchJob point_job(const SweepSpec& spec, const SweepPoint& p) {
  if (spec.mode == SweepMode::kExact) {
    BatchJob job;
    job.mode = BatchJob::Mode::kExact;
    job.dims = p.dims;
    job.sp = p.sp;
    job.config = p.config;
    job.processor = spec.processor;
    job.seed = spec.seed;
    return job;
  }
  return sampled_job(p.dims, p.sp, p.config, spec.processor, spec.sample);
}

std::vector<std::string> grid_keys(const SweepSpec& spec, const std::vector<SweepPoint>& points) {
  std::vector<std::string> keys;
  keys.reserve(points.size());
  for (const SweepPoint& p : points) keys.push_back(p.cache_key(spec));
  return keys;
}

std::uint64_t grid_hash(const std::vector<std::string>& keys) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::string& key : keys) hash = fnv1a(key, hash);
  return hash;
}

// --- execution ------------------------------------------------------------

SweepReport run_sweep(const SweepSpec& spec, const std::vector<SweepPoint>& points,
                      unsigned threads, ResultStore* store, bool resume,
                      const std::atomic<bool>* cancel) {
  IMAC_CHECK(!resume || store != nullptr, "run_sweep: resume needs a result store");
  SweepReport report;
  report.spec_name = spec.name;

  // One job per unique cache key not served from the store; duplicate
  // points (identical shapes under a different workload name, repeated
  // grid cells) share the measurement.
  const std::vector<std::string> keys = grid_keys(spec, points);
  report.spec_hash = grid_hash(keys);
  std::unordered_map<std::string, std::size_t> job_of_key;
  std::vector<BatchJob> jobs;
  std::vector<std::string> job_keys;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::string& key = keys[i];
    if (job_of_key.count(key) != 0 || (resume && store->find(key) != nullptr)) continue;
    job_of_key.emplace(key, jobs.size());
    jobs.push_back(point_job(spec, points[i]));
    job_keys.push_back(key);
  }

  // Results enter the journal from the worker threads the moment each
  // measurement finishes, not after the whole batch: a sweep killed mid-run
  // keeps everything measured so far for --resume. ResultStore is
  // thread-safe, as run_batch's completion callback requires.
  const std::vector<BatchResult> results = run_batch(
      jobs, threads,
      [&](std::size_t i, const BatchResult& r) {
        if (store != nullptr) store->put(job_keys[i], StoredResult{r.cycles, r.data_accesses});
      },
      cancel);

  report.rows.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SweepRow row;
    row.point = points[i];
    if (const auto it = job_of_key.find(keys[i]); it != job_of_key.end()) {
      row.cycles = results[it->second].cycles;
      row.data_accesses = results[it->second].data_accesses;
    } else {
      const StoredResult* stored = store->find(keys[i]);
      IMAC_ASSERT(stored != nullptr, "sweep row neither measured nor journaled");
      row.cycles = stored->cycles;
      row.data_accesses = stored->data_accesses;
    }
    report.rows.push_back(std::move(row));
  }
  return report;
}

// --- sharding and merging -------------------------------------------------

ShardSpec parse_shard(const std::string& text) {
  const std::size_t slash = text.find('/');
  const auto all_digits = [](const std::string& s) {
    if (s.empty()) return false;
    for (const char c : s)
      if (c < '0' || c > '9') return false;
    return true;
  };
  const std::string index_part = text.substr(0, slash);
  const std::string count_part = slash == std::string::npos ? "" : text.substr(slash + 1);
  IMAC_CHECK(slash != std::string::npos && all_digits(index_part) && all_digits(count_part) &&
                 index_part.size() <= 4 && count_part.size() <= 4,
             "shard must be \"i/N\" with 1 <= i <= N <= 4096, got \"" + text + "\"");
  ShardSpec shard;
  shard.index = static_cast<unsigned>(std::stoul(index_part));
  shard.count = static_cast<unsigned>(std::stoul(count_part));
  IMAC_CHECK(shard.index >= 1 && shard.index <= shard.count && shard.count <= 4096,
             "shard must be \"i/N\" with 1 <= i <= N <= 4096, got \"" + text + "\"");
  return shard;
}

bool shard_owns(const ShardSpec& shard, const std::string& cache_key) {
  return fnv1a(cache_key) % shard.count == shard.index - 1;
}

std::vector<SweepPoint> filter_shard(const SweepSpec& spec, const std::vector<SweepPoint>& points,
                                     const ShardSpec& shard) {
  std::vector<SweepPoint> out;
  for (const SweepPoint& p : points)
    if (shard_owns(shard, p.cache_key(spec))) out.push_back(p);
  return out;
}

namespace {

void merge_result(const std::string& key, const StoredResult& result, const char* origin,
                  std::map<std::string, StoredResult>& merged) {
  const auto [it, inserted] = merged.emplace(key, result);
  IMAC_CHECK(inserted || it->second == result,
             std::string("merge: ") + origin + " disagrees with an earlier shard about \"" + key +
                 "\" (refusing a silently wrong merge)");
}

}  // namespace

void accumulate_results(const SweepSpec& spec, const SweepReport& shard,
                        std::map<std::string, StoredResult>& merged) {
  for (const SweepRow& row : shard.rows)
    merge_result(row.point.cache_key(spec), StoredResult{row.cycles, row.data_accesses},
                 "shard report", merged);
}

void accumulate_results(const ResultStore& store, std::map<std::string, StoredResult>& merged) {
  for (const auto& [key, result] : store.results())
    merge_result(key, result, "shard store", merged);
}

SweepReport assemble_report(const SweepSpec& spec,
                            const std::map<std::string, StoredResult>& merged) {
  SweepReport report;
  report.spec_name = spec.name;
  const std::vector<SweepPoint> points = expand_sweep(spec);
  const std::vector<std::string> keys = grid_keys(spec, points);
  report.spec_hash = grid_hash(keys);
  report.rows.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto it = merged.find(keys[i]);
    IMAC_CHECK(it != merged.end(), "merge: shards do not cover the full grid; first missing "
                                   "point is " + points[i].workload + " \"" + keys[i] + "\"");
    SweepRow row;
    row.point = points[i];
    row.cycles = it->second.cycles;
    row.data_accesses = it->second.data_accesses;
    report.rows.push_back(std::move(row));
  }
  return report;
}

// --- reports --------------------------------------------------------------

namespace {

constexpr const char* kCsvHeader =
    "suite,workload,count,rows,k,cols,sparsity,algorithm,dataflow,unroll,tile_rows,mode,"
    "cycles,data_accesses";

std::string cycles_field(const SweepRow& row) {
  if (row.point.mode == SweepMode::kExact)
    return std::to_string(static_cast<std::uint64_t>(row.cycles));
  return fmt_fixed(row.cycles, 2);
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = line.find(sep, start);
    out.push_back(line.substr(start, pos - start));
    if (pos == std::string::npos) return out;
    start = pos + 1;
  }
}

/// Defensive hex parse for the header hash: report_to_csv always emits 16
/// hex digits, so anything else (truncation, editor damage) is malformed
/// input and must raise SimError like every other bad field — never an
/// uncaught std::invalid_argument/out_of_range from std::stoull.
std::uint64_t parse_hash(const std::string& s) {
  IMAC_CHECK(!s.empty() && s.size() <= 16, "csv report: bad spec hash \"" + s + "\"");
  std::uint64_t v = 0;
  for (const char c : s) {
    unsigned digit = 0;
    if (c >= '0' && c <= '9') digit = static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<unsigned>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F') digit = static_cast<unsigned>(c - 'A') + 10;
    else raise("csv report: bad spec hash \"" + s + "\"");
    v = (v << 4) | digit;
  }
  return v;
}

}  // namespace

std::string report_to_csv(const SweepReport& report) {
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(report.spec_hash));
  std::string out = "# indexmac sweep: spec=" + report.spec_name + " hash=" + hash + "\n";
  out += kCsvHeader;
  out += '\n';
  for (const SweepRow& row : report.rows) {
    const SweepPoint& p = row.point;
    out += p.suite + "," + p.workload + "," + std::to_string(p.count) + "," +
           std::to_string(p.dims.rows_a) + "," + std::to_string(p.dims.k) + "," +
           std::to_string(p.dims.cols_b) + "," + sparsity_label(p.sp) + "," +
           algorithm_id(p.config.algorithm) + "," + dataflow_id(p.config.kernel.dataflow) + "," +
           std::to_string(p.config.kernel.unroll) + "," + std::to_string(p.config.tile_rows) +
           "," + sweep_mode_name(p.mode) + "," + cycles_field(row) + "," +
           std::to_string(row.data_accesses) + "\n";
  }
  return out;
}

SweepReport parse_csv_report(const std::string& csv) {
  SweepReport report;
  bool saw_header = false;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    const std::string line = csv.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // A "# rollup" marker ends the point data: everything after it is
      // derived network totals (core/rollup.h), re-computable from the
      // rows above and deliberately not round-tripped.
      if (line.rfind("# rollup", 0) == 0) break;
      const std::size_t spec_at = line.find("spec=");
      if (spec_at != std::string::npos) {
        const std::size_t sp_end = line.find(' ', spec_at);
        report.spec_name = line.substr(spec_at + 5, sp_end - spec_at - 5);
      }
      const std::size_t hash_at = line.find("hash=");
      if (hash_at != std::string::npos) report.spec_hash = parse_hash(line.substr(hash_at + 5));
      continue;
    }
    if (!saw_header) {
      IMAC_CHECK(line == kCsvHeader, "csv report: unexpected header \"" + line + "\"");
      saw_header = true;
      continue;
    }
    const std::vector<std::string> f = split(line, ',');
    IMAC_CHECK(f.size() == 14, "csv report: expected 14 fields, got " +
                                   std::to_string(f.size()) + " in \"" + line + "\"");
    SweepRow row;
    row.point.suite = f[0];
    row.point.workload = f[1];
    // 32-bit fields are bounded, never truncated into a different point.
    row.point.count = static_cast<unsigned>(parse_uint(f[2], "csv report count", kU32Max));
    row.point.dims = {parse_uint(f[3], "csv report rows"), parse_uint(f[4], "csv report k"),
                      parse_uint(f[5], "csv report cols")};
    row.point.sp = parse_sparsity(f[6]);
    row.point.config.algorithm = parse_algorithm(f[7]);
    row.point.config.kernel.dataflow = parse_dataflow(f[8]);
    row.point.config.kernel.unroll =
        static_cast<unsigned>(parse_uint(f[9], "csv report unroll", kU32Max));
    row.point.config.tile_rows =
        static_cast<unsigned>(parse_uint(f[10], "csv report tile_rows", kU32Max));
    row.point.mode = parse_mode(f[11]);
    // parse_double (std::from_chars) is locale-independent; std::stod here
    // would mis-read "123.45" as 123 under a comma-decimal LC_NUMERIC and
    // silently corrupt every sampled-mode row.
    row.cycles = parse_double(f[12], "csv report cycles");
    row.data_accesses = parse_uint(f[13], "csv report data_accesses");
    report.rows.push_back(std::move(row));
  }
  IMAC_CHECK(saw_header, "csv report: missing header row");
  return report;
}

}  // namespace indexmac::core
