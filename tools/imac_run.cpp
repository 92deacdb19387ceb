// imac-run: the simulator's command-line front end.
//
// Subcommands:
//   run             assemble + execute a text-assembly program (functional
//                   or cycle-level timing simulation)
//   sweep           execute a declarative sweep spec (JSON) over the
//                   workload registry and emit a CSV report; with
//                   --store/--resume/--shard the run is crash-safe,
//                   restartable, and horizontally partitionable
//   merge           fuse shard stores and/or shard CSV reports back into
//                   the canonical single-process report
//   list-workloads  show the registered workload suites (or one suite's
//                   layer list)
//   list-algorithms show the registered kernel families (id, name, report
//                   role, sampled-mode support)
//   report          pretty-print a sweep CSV, pairing algorithms into
//                   speedup columns by their registry pairing role; with
//                   --rollup, fold count-weighted rows into whole-network
//                   latency / energy-proxy totals
//
// Invoking with a .s file and no subcommand keeps the historical
// single-purpose interface working: `imac_run [flags] file.s` == `imac_run
// run [flags] file.s`.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "asm/text_assembler.h"
#include "common/error.h"
#include "common/format.h"
#include "core/algorithm_table.h"
#include "core/batch.h"
#include "core/result_store.h"
#include "core/rollup.h"
#include "core/sweep.h"
#include "fsim/machine.h"
#include "fsim/tracer.h"
#include "timing/timing_sim.h"
#include "workloads/workloads.h"

namespace {

/// SIGINT/SIGTERM flag for sweep's graceful shutdown. An atomic store is
/// the only thing the handler does — async-signal-safe.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

void install_stop_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

/// Per-subcommand documentation. The summary list, the full help, and
/// `imac_run <sub> --help` all render from this one table, and
/// tools/gen_cli_docs.py regenerates docs/cli.md from the same output —
/// a flag documented here is documented everywhere.
struct SubcommandDoc {
  const char* name;
  const char* brief;  ///< one line for the summary list
  const char* help;   ///< full section (usage line + flag descriptions)
};

const SubcommandDoc kSubcommands[] = {
    {"run", "assemble and execute a text-assembly program",
     "  run [--timing | [--trace] [--dump-regs]] [--max-steps N] file.s\n"
     "      Assembles file.s (the library's RISC-V subset, including\n"
     "      vindexmac.vx) and executes it; programs halt with ebreak.\n"
     "      --timing       run on the cycle-level timing model\n"
     "      --trace        print each executed instruction (functional mode)\n"
     "      --max-steps N  stop after N instructions (default 100000000)\n"
     "      --dump-regs    print architectural registers on exit\n"
     "                     (functional mode)\n"},
    {"sweep", "run a declarative sweep spec and emit a CSV report",
     "  sweep --spec spec.json [--out file] [--threads N]\n"
     "        [--store DIR] [--resume] [--fsync] [--shard i/N] [--rollup]\n"
     "      Runs the sweep described by spec.json (see README: sweep specs)\n"
     "      on parallel worker threads and writes the report to stdout or\n"
     "      --out.\n"
     "      --threads N   worker threads, an integer in [1, 1024] (default:\n"
     "                    one worker per hardware thread)\n"
     "      --store DIR   journal every completed point to DIR/results.journal\n"
     "                    (append-only, CRC-checked; survives a killed run)\n"
     "      --resume      with --store: serve already-journaled points from\n"
     "                    the store and simulate only what is missing\n"
     "      --shard i/N   run only shard i of N: points are partitioned by\n"
     "                    digest (fnv1a(key) %% N == i-1), so N processes with\n"
     "                    disjoint shards cover the grid exactly once\n"
     "      --fsync       with --store: fsync the journal after every record\n"
     "                    (survives power loss, not just process death)\n"
     "      --rollup      append whole-network totals to the report: a\n"
     "                    \"# rollup\" CSV section with count-weighted\n"
     "                    end-to-end cycles and a bytes-moved energy proxy\n"
     "                    per (suite x sparsity x config)\n"
     "      SIGINT/SIGTERM stop gracefully: queued points are skipped,\n"
     "      in-flight points finish and journal, and the run exits 130 with\n"
     "      a resume hint (rerun with --resume).\n"},
    {"merge", "fuse shard stores/reports into the canonical report",
     "  merge --spec spec.json [--store DIR]... [--out file] [shard.csv]...\n"
     "      Fuses shard stores and/or shard CSV reports into the canonical\n"
     "      report of spec.json — byte-identical to a single-process sweep.\n"
     "      Conflicting or missing points abort with an error, as does a\n"
     "      --store DIR with no DIR/results.journal (merge creates nothing).\n"
     "      Stores keep full double precision; shard CSVs round sampled-mode\n"
     "      cycles to 2 decimals: CSV inputs still give byte-exact output,\n"
     "      but must not overlap a store's sampled points.\n"},
    {"list-workloads", "show registered workload suites (or one suite's layers)",
     "  list-workloads [suite]\n"
     "      Lists the registered workload suites, or one suite's layers.\n"},
    {"list-algorithms", "show registered kernel families",
     "  list-algorithms\n"
     "      Lists the registered kernel families: id (as used in sweep specs\n"
     "      and CSV reports), display name, report pairing role, and whether\n"
     "      sampled sweep mode supports the family.\n"},
    {"report", "pretty-print a sweep CSV with paired speedup columns",
     "  report [--rollup] file.csv\n"
     "      Pretty-prints a sweep CSV; rows measured with both kernels are\n"
     "      paired into a speedup column (baseline / proposed cycles) and an\n"
     "      access ratio column (proposed / baseline data accesses);\n"
     "      standalone families keep their own rows. --rollup prints\n"
     "      whole-network totals instead, paired the same way: per\n"
     "      (suite x sparsity x config), count-weighted end-to-end cycles,\n"
     "      data accesses and the bytes-moved energy proxy (accesses x 64,\n"
     "      a cache-line-granularity upper bound).\n"},
};

// Requested help goes to stdout (exit 0); usage errors go to stderr (the
// summary only — `imac_run <sub> --help` has the details).
void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: imac_run <subcommand> [args]\n"
               "\n"
               "subcommands:\n");
  for (const SubcommandDoc& doc : kSubcommands)
    std::fprintf(out, "  %-16s %s\n", doc.name, doc.brief);
  std::fprintf(out,
               "\n"
               "`imac_run <subcommand> --help` shows that subcommand's flags;\n"
               "`imac_run --help` shows every subcommand's flags.\n"
               "`imac_run [flags] file.s` (no subcommand) is accepted as `run`.\n"
               "  -h, --help     show this help and exit\n");
}

void usage_full(std::FILE* out) {
  usage(out);
  std::fprintf(out, "\n");
  for (const SubcommandDoc& doc : kSubcommands) std::fprintf(out, "%s", doc.help);
  std::fprintf(out,
               "\n"
               "  Integer flags take decimal digits only: a sign, a space or a value\n"
               "  out of range (a --threads above 1024) is an error naming the flag.\n");
}

/// Full help for one subcommand, or nullptr if the name is unknown.
const SubcommandDoc* find_subcommand_doc(const char* name) {
  for (const SubcommandDoc& doc : kSubcommands)
    if (std::strcmp(doc.name, name) == 0) return &doc;
  return nullptr;
}

void dump_registers(const indexmac::ArchState& state) {
  std::printf("\nregisters:\n");
  for (unsigned r = 0; r < 32; r += 4) {
    for (unsigned i = r; i < r + 4; ++i)
      std::printf("  x%-2u=%-16llx", i, static_cast<unsigned long long>(state.x[i]));
    std::printf("\n");
  }
  std::printf("  vl=%u\n", state.vl);
}

/// Short "RxKxN" label for a GEMM.
std::string dims_label(const indexmac::kernels::GemmDims& d) {
  return std::to_string(d.rows_a) + "x" + std::to_string(d.k) + "x" + std::to_string(d.cols_b);
}

int cmd_run(int argc, char** argv) {
  using namespace indexmac;
  bool timing = false;
  bool trace = false;
  bool dump_regs = false;
  std::uint64_t max_steps = 100'000'000;
  const char* path = nullptr;

  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--timing") == 0) timing = true;
    else if (std::strcmp(argv[i], "--trace") == 0) trace = true;
    else if (std::strcmp(argv[i], "--dump-regs") == 0) dump_regs = true;
    else if (std::strcmp(argv[i], "--max-steps") == 0 && i + 1 < argc)
      max_steps = parse_uint(argv[++i], "--max-steps");
    else if (argv[i][0] != '-' && path == nullptr) path = argv[i];
    else {
      usage(stderr);
      return 2;
    }
  }
  if (path == nullptr) {
    usage(stderr);
    return 2;
  }
  // --trace and --dump-regs describe a functional run; the timing model
  // prints neither, so asking for both is an error, not a silent no-op.
  if (timing && (trace || dump_regs)) {
    std::fprintf(stderr, "imac_run run: --timing cannot be combined with %s\n",
                 trace && dump_regs ? "--trace and --dump-regs"
                 : trace            ? "--trace"
                                    : "--dump-regs");
    return 2;
  }

  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "imac_run: cannot open %s\n", path);
    return 1;
  }
  std::stringstream source;
  source << file.rdbuf();

  const Program program = assemble_text(source.str());
  std::printf("assembled %zu instructions at 0x%llx\n", program.size(),
              static_cast<unsigned long long>(program.base()));

  MainMemory mem;
  if (timing) {
    timing::TimingSim sim(program, mem, timing::ProcessorConfig{});
    const timing::TimingStats& stats = sim.run(max_steps);
    std::printf("cycles: %llu  instructions: %llu  IPC: %.2f\n",
                static_cast<unsigned long long>(stats.cycles),
                static_cast<unsigned long long>(stats.instructions), stats.ipc());
    std::printf("vector: %llu instrs (%llu loads, %llu stores, %llu MACs, %llu moves)\n",
                static_cast<unsigned long long>(stats.vector_instructions),
                static_cast<unsigned long long>(stats.vector_loads),
                static_cast<unsigned long long>(stats.vector_stores),
                static_cast<unsigned long long>(stats.vector_macs),
                static_cast<unsigned long long>(stats.vector_to_scalar_moves));
    std::printf("memory: %llu data accesses, %llu DRAM lines\n",
                static_cast<unsigned long long>(stats.mem.data_accesses()),
                static_cast<unsigned long long>(stats.mem.dram_lines));
    std::printf("dispatch stalls: operand %llu, branch %llu, queue %llu, bandwidth %llu\n",
                static_cast<unsigned long long>(stats.dispatch_stalls.scalar_operand),
                static_cast<unsigned long long>(stats.dispatch_stalls.branch_shadow),
                static_cast<unsigned long long>(stats.dispatch_stalls.queue_full),
                static_cast<unsigned long long>(stats.dispatch_stalls.bandwidth));
  } else {
    Machine machine(program, mem);
    StopReason stop;
    if (trace) {
      Tracer tracer(machine);
      stop = tracer.run(std::cout, max_steps);
    } else {
      stop = machine.run(max_steps);
    }
    const char* why = stop == StopReason::kEbreak   ? "ebreak"
                      : stop == StopReason::kEcall  ? "ecall"
                                                    : "max-steps";
    std::printf("stopped: %s after %llu instructions\n", why,
                static_cast<unsigned long long>(machine.instructions_retired()));
    if (dump_regs) dump_registers(machine.state());
  }
  return 0;
}

/// Writes a rendered report to --out (binary, so CSV bytes are exact) or
/// stdout. Returns a process exit code.
int write_report(const std::string& rendered, const char* out_path, std::size_t rows,
                 const char* subcommand) {
  if (out_path != nullptr) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "imac_run %s: cannot write %s\n", subcommand, out_path);
      return 1;
    }
    out << rendered;
    // Flush and verify before claiming success: a full disk (or a signal
    // killing us during the message below) must not leave a silently
    // truncated report behind a "wrote N rows" line.
    out.close();
    if (!out) {
      std::fprintf(stderr, "imac_run %s: write to %s failed\n", subcommand, out_path);
      return 1;
    }
    std::fprintf(stderr, "wrote %zu rows to %s\n", rows, out_path);
  } else {
    // stdout is frequently a redirect; a short write (full disk, closed
    // pipe) must fail the process, not masquerade as a complete report.
    if (std::fwrite(rendered.data(), 1, rendered.size(), stdout) != rendered.size() ||
        std::fflush(stdout) != 0) {
      std::fprintf(stderr, "imac_run %s: write to stdout failed\n", subcommand);
      return 1;
    }
  }
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  using namespace indexmac;
  const char* spec_path = nullptr;
  const char* out_path = nullptr;
  const char* store_dir = nullptr;
  const char* shard_text = nullptr;
  bool resume = false;
  bool fsync_each = false;
  bool rollup = false;
  unsigned threads = 0;

  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) spec_path = argv[++i];
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) store_dir = argv[++i];
    else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) shard_text = argv[++i];
    else if (std::strcmp(argv[i], "--resume") == 0) resume = true;
    else if (std::strcmp(argv[i], "--rollup") == 0) rollup = true;
    else if (std::strcmp(argv[i], "--fsync") == 0) fsync_each = true;
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = core::parse_thread_count(argv[++i]);
    else {
      usage(stderr);
      return 2;
    }
  }
  if (spec_path == nullptr) {
    std::fprintf(stderr, "imac_run sweep: --spec is required\n");
    return 2;
  }
  if (resume && store_dir == nullptr) {
    std::fprintf(stderr, "imac_run sweep: --resume requires --store DIR\n");
    return 2;
  }
  if (fsync_each && store_dir == nullptr) {
    std::fprintf(stderr, "imac_run sweep: --fsync requires --store DIR\n");
    return 2;
  }

  const core::SweepSpec spec = core::parse_sweep_spec_file(spec_path);
  std::vector<core::SweepPoint> points = core::expand_sweep(spec);
  const std::size_t full_grid = points.size();
  if (shard_text != nullptr) {
    const core::ShardSpec shard = core::parse_shard(shard_text);
    points = core::filter_shard(spec, points, shard);
    std::fprintf(stderr, "shard %u/%u owns %zu of %zu points\n", shard.index, shard.count,
                 points.size(), full_grid);
  }

  // With a store, every completed point is journaled as it finishes, and
  // --resume additionally serves journaled points without re-simulation.
  std::unique_ptr<core::ResultStore> store;
  if (store_dir != nullptr) {
    store = std::make_unique<core::ResultStore>(
        store_dir, fsync_each ? core::Durability::kFsyncEach : core::Durability::kFlush);
    if (store->dropped_bytes() > 0)
      std::fprintf(stderr, "store %s: recovered (dropped %llu corrupt tail bytes)\n",
                   store->journal_path().c_str(),
                   static_cast<unsigned long long>(store->dropped_bytes()));
    std::fprintf(stderr, "store %s: %llu journaled results%s\n", store->journal_path().c_str(),
                 static_cast<unsigned long long>(store->loaded()),
                 resume ? " (resuming)" : "");
  }

  if (threads == 0) threads = core::default_thread_count();
  std::fprintf(stderr, "sweep %s: %zu points on %u threads\n", spec.name.c_str(), points.size(),
               threads);
  install_stop_handlers();
  try {
    const core::SweepReport report =
        core::run_sweep(spec, points, threads, store.get(), resume, &g_stop);
    if (store != nullptr) {
      // Every point the report shows is on stable storage before the
      // report exists, whatever the per-record durability level.
      store->sync();
      std::fprintf(stderr, "store: %llu new simulations journaled (%llu already on disk)\n",
                   static_cast<unsigned long long>(store->appended()),
                   static_cast<unsigned long long>(store->loaded()));
    }
    if (spec.mode == core::SweepMode::kSampled) {
      const core::MiniatureCounts counts = core::miniature_counts();
      std::fprintf(stderr, "sampled: %llu miniature simulations for %llu points\n",
                   static_cast<unsigned long long>(counts.simulations),
                   static_cast<unsigned long long>(counts.lookups));
    }
    std::string rendered = core::report_to_csv(report);
    if (rollup) rendered += core::rollup_to_csv(core::compute_rollup(report));
    return write_report(rendered, out_path, report.rows.size(), "sweep");
  } catch (const core::BatchCancelled&) {
    // Graceful interrupt: in-flight points finished and (with --store)
    // journaled before we got here; queued points were skipped. No report
    // is written — a partial grid must never render as a complete one.
    if (store != nullptr) {
      std::fprintf(stderr,
                   "sweep %s: interrupted; %llu completed points journaled to %s\n"
                   "resumable: rerun with --resume to simulate only the missing points\n",
                   spec.name.c_str(), static_cast<unsigned long long>(store->appended()),
                   store->journal_path().c_str());
    } else {
      std::fprintf(stderr,
                   "sweep %s: interrupted; completed points were DISCARDED (no --store)\n"
                   "hint: rerun with --store DIR to make interrupted sweeps resumable\n",
                   spec.name.c_str());
    }
    return 130;
  }
}

int cmd_merge(int argc, char** argv) {
  using namespace indexmac;
  const char* spec_path = nullptr;
  const char* out_path = nullptr;
  std::vector<const char*> store_dirs;
  std::vector<const char*> csv_paths;

  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) spec_path = argv[++i];
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) store_dirs.push_back(argv[++i]);
    else if (argv[i][0] != '-') {
      csv_paths.push_back(argv[i]);
    } else {
      usage(stderr);
      return 2;
    }
  }
  if (spec_path == nullptr) {
    std::fprintf(stderr, "imac_run merge: --spec is required\n");
    return 2;
  }
  if (store_dirs.empty() && csv_paths.empty()) {
    std::fprintf(stderr, "imac_run merge: nothing to merge (give --store DIR and/or shard CSVs)\n");
    return 2;
  }
  // A merge only reads stores: opening a missing one would create it (a
  // mistyped DIR would then surface as a coverage gap, not as a typo).
  for (const char* dir : store_dirs) {
    const std::filesystem::path journal =
        std::filesystem::path(dir) / core::ResultStore::kJournalName;
    if (!std::filesystem::is_regular_file(journal)) {
      std::fprintf(stderr, "imac_run merge: no result store at %s (%s does not exist)\n", dir,
                   journal.string().c_str());
      return 1;
    }
  }

  const core::SweepSpec spec = core::parse_sweep_spec_file(spec_path);
  std::map<std::string, core::StoredResult> merged;
  for (const char* dir : store_dirs) {
    const core::ResultStore store(dir);
    core::accumulate_results(store, merged);
    std::fprintf(stderr, "merged store %s: %zu results\n", store.journal_path().c_str(),
                 store.size());
  }
  for (const char* path : csv_paths) {
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "imac_run merge: cannot open %s\n", path);
      return 1;
    }
    std::stringstream buf;
    buf << file.rdbuf();
    const core::SweepReport shard = core::parse_csv_report(buf.str());
    core::accumulate_results(spec, shard, merged);
    std::fprintf(stderr, "merged report %s: %zu rows\n", path, shard.rows.size());
  }

  const core::SweepReport report = core::assemble_report(spec, merged);
  return write_report(core::report_to_csv(report), out_path, report.rows.size(), "merge");
}

int cmd_list_workloads(int argc, char** argv) {
  using namespace indexmac;
  const char* suite_name = nullptr;
  for (int i = 0; i < argc; ++i) {
    if (argv[i][0] != '-' && suite_name == nullptr) suite_name = argv[i];
    else {
      usage(stderr);
      return 2;
    }
  }
  if (suite_name != nullptr) {
    const workloads::ModelGraph& graph = workloads::model_graph(suite_name);
    std::printf("%s: %s\n\n", graph.name.c_str(), graph.description.c_str());
    TextTable table;
    table.set_header({"workload", "GEMM (RxKxN)", "count", "MMACs"});
    for (const workloads::LayerRecord& layer : graph.layers)
      table.add_row({layer.name, dims_label(layer.gemm), std::to_string(layer.repeat),
                     fmt_fixed(static_cast<double>(layer.macs()) / 1e6, 1)});
    std::printf("%s", table.to_string().c_str());
    return 0;
  }
  TextTable table;
  table.set_header({"suite", "workloads", "layers", "GMACs", "sparsities", "description"});
  for (const std::string& name : workloads::suite_names()) {
    const workloads::ModelGraph& graph = workloads::model_graph(name);
    std::string sparsities;
    for (const auto sp : graph.default_sparsities) {
      if (!sparsities.empty()) sparsities += ' ';
      sparsities += workloads::sparsity_label(sp);
    }
    table.add_row({graph.name, std::to_string(graph.layers.size()),
                   std::to_string(graph.layer_count()),
                   fmt_fixed(static_cast<double>(graph.total_macs()) / 1e9, 2), sparsities,
                   graph.description});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_list_algorithms(int argc, char** /*argv*/) {
  using namespace indexmac;
  if (argc != 0) {
    usage(stderr);
    return 2;
  }
  TextTable table;
  table.set_header({"id", "name", "role", "sampled", "description"});
  for (const core::AlgorithmRow& row : core::algorithm_table())
    table.add_row({row.id, row.display_name, core::pairing_role_name(row.pairing),
                   row.supports_sampled ? "yes" : "no", row.description});
  std::printf("%s", table.to_string().c_str());
  return 0;
}

/// The rows of one report line, by pairing role: the baseline,
/// proposed and proposed-v2 measurements of one point share a line, and
/// each standalone family (dense, ssr) keeps a line of its own.
template <typename Row>
struct PairedLine {
  const Row* baseline = nullptr;
  const Row* proposed = nullptr;
  const Row* proposed_v2 = nullptr;
  const Row* any = nullptr;

  /// The row whose algorithm, cycles and accesses the line shows.
  [[nodiscard]] const Row& shown() const { return proposed != nullptr ? *proposed : *any; }
  /// What proposed-v2 is measured against: Algorithm 3 when present, else
  /// Algorithm 2.
  [[nodiscard]] const Row* v2_base() const { return proposed != nullptr ? proposed : baseline; }
};

/// Groups rows into paired lines, in first-occurrence order. `key` names
/// everything about a row but its algorithm; `algorithm` reads that.
template <typename Row, typename Key, typename Alg>
std::vector<PairedLine<Row>> pair_rows(const std::vector<Row>& rows, Key key, Alg algorithm) {
  using indexmac::core::PairingRole;
  std::map<std::string, std::size_t> line_of;
  std::vector<PairedLine<Row>> lines;
  for (const Row& row : rows) {
    const indexmac::core::AlgorithmRow& family = indexmac::core::algorithm_row(algorithm(row));
    std::string k = key(row);
    if (family.pairing == PairingRole::kStandalone) k += std::string("|") + family.id;
    const auto [it, inserted] = line_of.try_emplace(k, lines.size());
    if (inserted) lines.emplace_back();
    PairedLine<Row>& line = lines[it->second];
    line.any = &row;
    switch (family.pairing) {
      case PairingRole::kBaseline: line.baseline = &row; break;
      case PairingRole::kProposed: line.proposed = &row; break;
      case PairingRole::kProposedV2: line.proposed_v2 = &row; break;
      case PairingRole::kStandalone: break;
    }
  }
  return lines;
}

/// The "speedup" and "access ratio" cells of `row` against `base` (base ÷
/// row cycles, row ÷ base data accesses), or "-" for both when unpaired.
template <typename Row>
std::vector<std::string> ratio_cells(const Row* base, const Row* row) {
  if (base == nullptr || row == nullptr) return {"-", "-"};
  return {indexmac::fmt_speedup(base->cycles / row->cycles),
          indexmac::fmt_fixed(static_cast<double>(row->data_accesses) /
                                  static_cast<double>(base->data_accesses),
                              3)};
}

/// Line key of the configuration columns both report views group by.
std::string config_key(const std::string& suite, indexmac::sparse::Sparsity sp, unsigned unroll,
                       indexmac::kernels::Dataflow dataflow, unsigned tile_rows,
                       indexmac::core::SweepMode mode) {
  return suite + "|" + indexmac::workloads::sparsity_label(sp) + "|u" + std::to_string(unroll) +
         "|" + indexmac::core::dataflow_id(dataflow) + "|L" + std::to_string(tile_rows) + "|" +
         indexmac::core::sweep_mode_name(mode);
}

/// The --rollup report view: whole-network totals per (suite x sparsity x
/// config), algorithms paired into speedup columns like the per-point view.
int print_rollup_report(const indexmac::core::SweepReport& report) {
  using namespace indexmac;
  const core::RollupReport totals = core::compute_rollup(report);
  const auto lines = pair_rows(
      totals.rows,
      [](const core::RollupRow& row) {
        return config_key(row.suite, row.sp, row.unroll, row.dataflow, row.tile_rows, row.mode);
      },
      [](const core::RollupRow& row) { return row.algorithm; });

  std::printf("sweep %s: network rollup (%zu groups)\n\n", report.spec_name.c_str(),
              totals.rows.size());
  TextTable table;
  table.set_header({"suite", "sparsity", "dataflow", "unroll", "L", "algorithm", "layers",
                    "net cycles", "net accesses", "energy (bytes)", "speedup", "access ratio"});
  const auto add = [&table](const core::RollupRow& row, const std::vector<std::string>& ratios) {
    std::vector<std::string> cells = {
        row.suite, workloads::sparsity_label(row.sp), core::dataflow_id(row.dataflow),
        std::to_string(row.unroll), std::to_string(row.tile_rows),
        core::algorithm_row(row.algorithm).id,
        std::to_string(row.layers), fmt_fixed(row.cycles, 0), fmt_count(row.data_accesses),
        fmt_count(row.energy_proxy_bytes())};
    cells.insert(cells.end(), ratios.begin(), ratios.end());
    table.add_row(std::move(cells));
  };
  for (const auto& line : lines) {
    add(line.shown(), ratio_cells(line.baseline, line.proposed));
    if (line.proposed_v2 != nullptr)
      add(*line.proposed_v2, ratio_cells(line.v2_base(), line.proposed_v2));
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_report(int argc, char** argv) {
  using namespace indexmac;
  bool rollup = false;
  const char* path = nullptr;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rollup") == 0) rollup = true;
    else if (argv[i][0] != '-' && path == nullptr) path = argv[i];
    else {
      usage(stderr);
      return 2;
    }
  }
  if (path == nullptr) {
    usage(stderr);
    return 2;
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "imac_run report: cannot open %s\n", path);
    return 1;
  }
  std::stringstream buf;
  buf << file.rdbuf();
  const core::SweepReport report = core::parse_csv_report(buf.str());
  if (rollup) return print_rollup_report(report);

  const auto lines = pair_rows(
      report.rows,
      [](const core::SweepRow& row) {
        const core::SweepPoint& p = row.point;
        return p.workload + "|" + dims_label(p.dims) + "|" +
               config_key(p.suite, p.sp, p.config.kernel.unroll, p.config.kernel.dataflow,
                          p.config.tile_rows, p.mode);
      },
      [](const core::SweepRow& row) { return row.point.config.algorithm; });
  bool any_v2 = false;
  for (const auto& line : lines) any_v2 = any_v2 || line.proposed_v2 != nullptr;

  std::printf("sweep %s (%zu rows)\n\n", report.spec_name.c_str(), report.rows.size());
  TextTable table;
  std::vector<std::string> header = {"suite",     "workload", "GEMM (RxKxN)", "sparsity",
                                     "dataflow",  "unroll",   "L",            "algorithm",
                                     "cycles",    "accesses", "speedup",      "access ratio"};
  if (any_v2) {
    header.push_back("v2 cycles");
    header.push_back("v2 speedup");
  }
  table.set_header(header);
  for (const auto& line : lines) {
    const core::SweepRow& shown = line.shown();
    const core::SweepPoint& p = shown.point;
    std::vector<std::string> cells = {
        p.suite, p.workload, dims_label(p.dims), workloads::sparsity_label(p.sp),
        core::dataflow_id(p.config.kernel.dataflow), std::to_string(p.config.kernel.unroll),
        std::to_string(p.config.tile_rows), core::algorithm_row(p.config.algorithm).id,
        fmt_fixed(shown.cycles, 0), fmt_count(shown.data_accesses)};
    const std::vector<std::string> ratios = ratio_cells(line.baseline, line.proposed);
    cells.insert(cells.end(), ratios.begin(), ratios.end());
    if (any_v2) {
      cells.push_back(line.proposed_v2 != nullptr ? fmt_fixed(line.proposed_v2->cycles, 0)
                                                  : "-");
      cells.push_back(ratio_cells(line.v2_base(), line.proposed_v2).front());
    }
    table.add_row(std::move(cells));
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

bool is_subcommand(const char* s) { return find_subcommand_doc(s) != nullptr; }

}  // namespace

int main(int argc, char** argv) {
  // `imac_run <sub> --help` prints that subcommand's section; `--help`
  // anywhere else prints everything.
  const bool named = argc >= 2 && is_subcommand(argv[1]);
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      if (named) {
        std::printf("usage: imac_run <subcommand> [args]\n\n%s",
                    find_subcommand_doc(argv[1])->help);
      } else {
        usage_full(stdout);
      }
      return 0;
    }
  if (argc < 2) {
    usage(stderr);
    return 2;
  }

  try {
    if (named) {
      const char* cmd = argv[1];
      char** rest = argv + 2;
      const int nrest = argc - 2;
      if (std::strcmp(cmd, "run") == 0) return cmd_run(nrest, rest);
      if (std::strcmp(cmd, "sweep") == 0) return cmd_sweep(nrest, rest);
      if (std::strcmp(cmd, "merge") == 0) return cmd_merge(nrest, rest);
      if (std::strcmp(cmd, "list-workloads") == 0) return cmd_list_workloads(nrest, rest);
      if (std::strcmp(cmd, "list-algorithms") == 0) return cmd_list_algorithms(nrest, rest);
      return cmd_report(nrest, rest);
    }
    // Historical interface: flags + a .s file, no subcommand.
    return cmd_run(argc - 1, argv + 1);
  } catch (const indexmac::SimError& e) {
    std::fprintf(stderr, "imac_run: %s\n", e.what());
    return 1;
  }
}
