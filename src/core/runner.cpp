#include "core/runner.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "kernels/kernels.h"

namespace indexmac::core {

using kernels::MarkerId;

ExactResult run_exact(const SpmmProblem& problem, const RunConfig& config,
                      const timing::ProcessorConfig& processor) {
  MainMemory mem;
  const PreparedRun run = prepare(problem, config, mem);
  return {timing::TimingSim(run.program, mem, processor).run()};
}

ExactResult run_exact(const kernels::GemmDims& dims, sparse::Sparsity sp, std::uint32_t seed,
                      const RunConfig& config, const timing::ProcessorConfig& processor) {
  MainMemory mem;
  const PreparedRun run = prepare(dims, sp, seed, config, mem);
  return {timing::TimingSim(run.program, mem, processor).run()};
}

namespace {

/// Leading row groups per k-tile that absorb cold B-row misses (with 1:4
/// sparsity one group of four rows touches at most 16 of the tile's rows,
/// so cold misses can spill into the second group).
constexpr std::size_t kHeadGroups = 2;

PhaseCosts decompose(const std::vector<timing::MarkerEvent>& events, std::size_t full_visits,
                     std::size_t tail_visits, std::size_t ktiles, std::size_t groups_per_ktile) {
  IMAC_CHECK(!events.empty() && events.front().id == kernels::kMarkerKernelStart,
             "sampled run must start with a kernel-start marker");
  const std::size_t per_visit = ktiles * (1 + groups_per_ktile);
  const std::size_t expected = 2 + (full_visits + tail_visits) * per_visit;
  IMAC_CHECK(events.size() == expected,
             "marker stream has " + std::to_string(events.size()) + " events, expected " +
                 std::to_string(expected));

  PhaseCosts out;
  const std::size_t head = std::min(kHeadGroups, groups_per_ktile);
  out.head_groups = static_cast<double>(head);
  out.startup = static_cast<double>(events.front().cycle);
  std::size_t idx = 1;
  std::uint64_t prev_cycle = events.front().cycle;
  struct Sums {
    double preload = 0, head = 0, steady = 0;
    std::uint64_t preload_n = 0, head_n = 0, steady_n = 0;
  } sums[2];

  for (std::size_t visit = 0; visit < full_visits + tail_visits; ++visit) {
    Sums& s = sums[visit < full_visits ? 0 : 1];
    for (std::size_t t = 0; t < ktiles; ++t) {
      IMAC_CHECK(events[idx].id == kernels::kMarkerPreloadDone, "expected preload marker");
      s.preload += static_cast<double>(events[idx].cycle - prev_cycle);
      ++s.preload_n;
      prev_cycle = events[idx].cycle;
      ++idx;
      for (std::size_t g = 0; g < groups_per_ktile; ++g) {
        IMAC_CHECK(events[idx].id == kernels::kMarkerRowGroupDone, "expected row-group marker");
        const auto delta = static_cast<double>(events[idx].cycle - prev_cycle);
        if (g < head) {
          s.head += delta;
          ++s.head_n;
        } else {
          s.steady += delta;
          ++s.steady_n;
        }
        prev_cycle = events[idx].cycle;
        ++idx;
      }
    }
  }
  IMAC_CHECK(events[idx].id == kernels::kMarkerKernelEnd, "expected kernel-end marker");

  auto finish = [head](const Sums& s) {
    PhaseCosts::StripType t;
    if (s.preload_n > 0) t.preload = s.preload / static_cast<double>(s.preload_n);
    const double visits = s.head_n > 0 ? static_cast<double>(s.head_n) / head : 1.0;
    t.head_total = s.head / visits;
    t.steady_group =
        s.steady_n > 0 ? s.steady / static_cast<double>(s.steady_n) : t.head_total / head;
    return t;
  };
  out.full = finish(sums[0]);
  out.tail = finish(sums[1]);
  return out;
}

/// Full-size cost of one (strip, k-tile) visit given measured phase costs.
double visit_cost(const PhaseCosts::StripType& t, double head_groups, double groups_full_eq) {
  if (groups_full_eq <= head_groups)
    return t.preload + t.head_total * (groups_full_eq / head_groups);
  return t.preload + t.head_total + t.steady_group * (groups_full_eq - head_groups);
}

/// Sampled miniatures draw their operands from this fixed seed, so a
/// miniature's dims, sparsity, tile rows and index form identify its image.
constexpr std::uint32_t kMiniatureSeed = 12345;

/// A miniature's memory image as prepare left it. Its layout's dims,
/// sparsity and tile rows and its index form identify it.
struct MiniatureImage {
  sparse::IndexMode index_mode = sparse::IndexMode::kVrfIndex;
  kernels::SpmmLayout layout;
  MainMemory mem;
};

std::uint64_t analytic_accesses(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                const RunConfig& config) {
  AddressAllocator alloc;
  const kernels::SpmmLayout layout = kernels::make_layout(dims, sp, config.tile_rows, alloc);
  const AlgorithmRow& family = algorithm_row(config.algorithm);
  IMAC_CHECK(family.footprint != nullptr,
             std::string("algorithm \"") + family.id + "\" has no analytic footprint model");
  const kernels::KernelFootprint fp = family.footprint(layout);
  // Scalar index-word loads (Algorithm 4) are memory accesses too: the
  // exact runs count them in MemStats, so the analytic total must match.
  return fp.vector_loads + fp.vector_stores + fp.scalar_loads;
}

}  // namespace

MiniatureSpec miniature_spec(const kernels::GemmDims& dims, sparse::Sparsity sp,
                             const RunConfig& config, const timing::ProcessorConfig& processor,
                             const SampleParams& params) {
  const unsigned unroll = config.kernel.unroll;
  // Miniature dims: reduced rows (multiple of the unroll factor, so the
  // marker stream is regular) and reduced full strips; full k depth.
  const std::size_t full_strips = dims.cols_b / isa::kVlMax;
  const unsigned tail = static_cast<unsigned>(dims.cols_b % isa::kVlMax);
  const std::size_t sample_full =
      std::min<std::size_t>(full_strips, std::max(1u, params.sample_full_strips));
  MiniatureSpec spec{.dims = dims, .sp = sp, .config = config, .processor = processor,
                     .max_instructions = params.max_instructions};
  spec.dims.rows_a = std::min<std::size_t>(
      round_up(dims.rows_a, unroll), round_up(std::max(params.sample_rows, unroll), unroll));
  spec.dims.cols_b = (full_strips == 0 ? 0 : sample_full * isa::kVlMax) + tail;
  spec.config.kernel.emit_markers = true;
  return spec;
}

Miniature measure_miniature(const MiniatureSpec& spec) {
  const AlgorithmRow& family = algorithm_row(spec.config.algorithm);
  IMAC_CHECK(!family.dense_operands, "sampled miniatures support the sparse kernels only");
  // The image this thread built last. Sweep expansion puts a layer's
  // algorithms and unrolls next to each other, so the next miniature of the
  // same layer and family emits its program onto it. The old image is
  // released before a new one is built, so holding it does not raise peak
  // memory.
  thread_local std::unique_ptr<MiniatureImage> image;
  Program program;
  if (image != nullptr && image->layout.dims == spec.dims && image->layout.sp == spec.sp &&
      image->layout.tile_rows == spec.config.tile_rows && image->index_mode == family.index_mode) {
    program = family.emit({.layout = image->layout, .options = spec.config.kernel});
  } else {
    image.reset();
    auto fresh = std::make_unique<MiniatureImage>();
    PreparedRun run = prepare(spec.dims, spec.sp, kMiniatureSeed, spec.config, fresh->mem);
    fresh->index_mode = family.index_mode;
    fresh->layout = run.layout;
    program = std::move(run.program);
    image = std::move(fresh);
  }

  Miniature out;
  try {
    timing::TimingSim sim(program, image->mem, spec.processor);
    out.stats = sim.run(spec.max_instructions);
    out.ktiles = image->layout.num_ktiles;
    out.costs = decompose(sim.markers(), spec.dims.cols_b / isa::kVlMax,
                          spec.dims.cols_b % isa::kVlMax != 0 ? 1 : 0, out.ktiles,
                          spec.dims.rows_a / spec.config.kernel.unroll);
  } catch (...) {
    image.reset();  // C may hold a partial result
    throw;
  }
  // The kernels store only to C: zeroing it leaves the image as prepared.
  const kernels::SpmmLayout& l = image->layout;
  image->mem.write_f32s(l.c_base, std::vector<float>(l.dims.rows_a * l.c_pitch_elems));
  return out;
}

namespace {

/// Entries the memo holds before it is cleared: about eight times the 516
/// distinct miniatures of sweepbench's cnn-sampled grid. Results never
/// depend on the memo, so a clear costs only repeat simulations.
constexpr std::size_t kMemoCapacity = 4096;

std::atomic<std::uint64_t> g_lookups{0};
std::atomic<std::uint64_t> g_simulations{0};

}  // namespace

Miniature memoized_miniature(const MiniatureSpec& spec) {
  // Built on first use, so runs that measure no sampled point never touch
  // it. A spec's entry is its measurement, or, while one thread simulates
  // it, the future the others wait on.
  static std::mutex mutex;
  static std::map<MiniatureSpec, std::shared_future<Miniature>> entries;  // guarded by mutex

  g_lookups.fetch_add(1, std::memory_order_relaxed);
  std::promise<Miniature> promise;
  std::shared_future<Miniature> result;
  bool simulate = false;
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (const auto it = entries.find(spec); it != entries.end()) {
      result = it->second;
    } else {
      if (entries.size() >= kMemoCapacity) entries.clear();
      result = promise.get_future().share();
      entries.emplace(spec, result);
      simulate = true;
    }
  }
  if (simulate) {
    g_simulations.fetch_add(1, std::memory_order_relaxed);
    try {
      promise.set_value(measure_miniature(spec));
    } catch (...) {
      // A failure is not a result: the next caller simulates again. Should
      // a clear have let another thread re-enter this spec meanwhile,
      // erasing its entry costs only a repeat simulation.
      {
        std::lock_guard<std::mutex> lock(mutex);
        entries.erase(spec);
      }
      promise.set_exception(std::current_exception());
    }
  }
  return result.get();
}

SampledResult extrapolate(const MiniatureSpec& spec, const Miniature& miniature,
                          const kernels::GemmDims& dims) {
  const unsigned unroll = spec.config.kernel.unroll;
  const std::size_t full_strips = dims.cols_b / isa::kVlMax;
  const unsigned tail = static_cast<unsigned>(dims.cols_b % isa::kVlMax);
  const PhaseCosts& costs = miniature.costs;

  // Extrapolate: per strip type, each k-tile pays its preload/loop overhead
  // plus the measured first-group cost once and the steady per-group cost
  // for the remaining rows_a/unroll - 1 group equivalents.
  const double groups_full_eq = static_cast<double>(dims.rows_a) / unroll;
  const double ktiles = static_cast<double>(miniature.ktiles);
  double cycles = costs.startup;
  if (full_strips > 0)
    cycles += static_cast<double>(full_strips) * ktiles *
              visit_cost(costs.full, costs.head_groups, groups_full_eq);
  if (tail != 0) cycles += ktiles * visit_cost(costs.tail, costs.head_groups, groups_full_eq);

  SampledResult out;
  out.cycles = cycles;
  out.sample_stats = miniature.stats;
  const PhaseCosts::StripType& rep = full_strips > 0 ? costs.full : costs.tail;
  out.preload_cycles_per_ktile = rep.preload;
  out.rowgroup_cycles_per_row = rep.steady_group / unroll;
  // Memory accesses are structure-determined; report the exact count.
  out.data_accesses = analytic_accesses(dims, spec.sp, spec.config);
  return out;
}

SampledResult run_sampled(const kernels::GemmDims& dims, sparse::Sparsity sp,
                          const RunConfig& config, const timing::ProcessorConfig& processor,
                          const SampleParams& params) {
  IMAC_CHECK(config.kernel.dataflow == kernels::Dataflow::kBStationary,
             "run_sampled supports B-stationary kernels only");
  IMAC_CHECK(algorithm_row(config.algorithm).supports_sampled,
             "run_sampled supports the sparse kernels only");
  const MiniatureSpec spec = miniature_spec(dims, sp, config, processor, params);
  return extrapolate(spec, memoized_miniature(spec), dims);
}

MiniatureCounts miniature_counts() {
  return {.lookups = g_lookups.load(std::memory_order_relaxed),
          .simulations = g_simulations.load(std::memory_order_relaxed)};
}

}  // namespace indexmac::core
