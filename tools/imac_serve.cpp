// imac_serve: the fault-tolerant distributed sweep orchestrator daemon.
// See src/serve/daemon.h for the orchestration model and
// src/serve/protocol.h for the wire format; workers are `imac_run worker`.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "common/format.h"
#include "serve/daemon.h"

namespace {

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: imac_serve --spec spec.json --store DIR [options]\n"
               "\n"
               "Serves one sweep spec to `imac_run worker` processes over TCP\n"
               "(127.0.0.1): workers lease grid points, results are journaled to\n"
               "DIR/results.journal BEFORE they are acknowledged, expired leases are\n"
               "re-leased to live workers, and when the grid is fully journaled the\n"
               "canonical report — byte-identical to `imac_run sweep` of the same\n"
               "spec — is written and the daemon exits 0. A spec already covered by\n"
               "the store is served straight from the journal (\"0 new\n"
               "simulations\") without opening a port.\n"
               "\n"
               "options:\n"
               "  --spec FILE      sweep spec JSON (required)\n"
               "  --store DIR      persistent result journal (required)\n"
               "  --out FILE       write the final report here (default stdout)\n"
               "  --format F       report format: csv (default) | json\n"
               "  --port N         listen port (default 0 = kernel-assigned)\n"
               "  --port-file F    write the bound port to F (harness handshake)\n"
               "  --lease-ms N     lease deadline: a lease with no heartbeat or\n"
               "                   result for N ms is re-queued (default 5000)\n"
               "  --batch N        points granted per lease (default 4)\n"
               "  --fsync          fsync the journal after every record (records\n"
               "                   survive power loss, not just process death)\n"
               "  --progress-ms N  progress/ETA stream interval (default 1000)\n"
               "  --grace-ms N     post-completion window answering \"complete\" to\n"
               "                   late workers (default 500)\n"
               "  --wall-ms N      abort (exit 3) after N ms; 0 = unlimited\n"
               "  -h, --help       show this help and exit\n"
               "\n"
               "SIGINT/SIGTERM stop gracefully: no new leases, in-flight results\n"
               "still journal, then exit 130 with a resume hint (rerun with the\n"
               "same --store; already-journaled points are never re-simulated).\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace indexmac;
  serve::ServeOptions opts;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return 0;
    }
  }
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) opts.spec_path = argv[++i];
      else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) opts.store_dir = argv[++i];
      else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) opts.out_path = argv[++i];
      else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc)
        opts.port = static_cast<std::uint16_t>(parse_uint(argv[++i], "--port", UINT16_MAX));
      else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc)
        opts.port_file = argv[++i];
      else if (std::strcmp(argv[i], "--lease-ms") == 0 && i + 1 < argc)
        opts.scheduler.lease_ms = parse_uint(argv[++i], "--lease-ms");
      else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc)
        opts.scheduler.batch =
            static_cast<std::uint32_t>(parse_uint(argv[++i], "--batch", UINT32_MAX));
      else if (std::strcmp(argv[i], "--fsync") == 0)
        opts.durability = core::Durability::kFsyncEach;
      else if (std::strcmp(argv[i], "--progress-ms") == 0 && i + 1 < argc)
        opts.progress_ms = parse_uint(argv[++i], "--progress-ms");
      else if (std::strcmp(argv[i], "--grace-ms") == 0 && i + 1 < argc)
        opts.grace_ms = parse_uint(argv[++i], "--grace-ms");
      else if (std::strcmp(argv[i], "--wall-ms") == 0 && i + 1 < argc)
        opts.wall_ms = parse_uint(argv[++i], "--wall-ms");
      else if (std::strcmp(argv[i], "--format") == 0 && i + 1 < argc) {
        const char* fmt = argv[++i];
        if (std::strcmp(fmt, "json") == 0) opts.json = true;
        else if (std::strcmp(fmt, "csv") == 0) opts.json = false;
        else {
          std::fprintf(stderr, "imac_serve: unknown format %s (csv|json)\n", fmt);
          return 2;
        }
      } else {
        usage(stderr);
        return 2;
      }
    }
    if (opts.spec_path.empty() || opts.store_dir.empty()) {
      std::fprintf(stderr, "imac_serve: --spec and --store are required\n");
      return 2;
    }
    if (opts.scheduler.batch == 0) {
      std::fprintf(stderr, "imac_serve: --batch must be at least 1\n");
      return 2;
    }
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    opts.stop = &g_stop;
    return serve::run_daemon(opts);
  } catch (const SimError& e) {
    std::fprintf(stderr, "imac_serve: %s\n", e.what());
    return 1;
  }
}
