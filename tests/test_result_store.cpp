// Persistent result store: journal round trips, crash recovery (truncated
// and corrupted tails), format guards, sweep journaling and resume,
// resume-after-kill, and digest sharding + merge byte-identity.
#include "core/result_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bitutil.h"
#include "core/sweep.h"

namespace indexmac::core {
namespace {

namespace fs = std::filesystem;

/// A per-test store directory, wiped before use so stale journals from a
/// previous run can never leak into counters.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("result_store_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::string journal_of(const std::string& dir) {
  return (fs::path(dir) / ResultStore::kJournalName).string();
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

constexpr const char* kUnitSpec = R"({
  "name": "unit",
  "workloads": ["tiny"],
  "sparsities": ["1:4"],
  "algorithms": ["rowwise", "indexmac"],
  "unroll": [4],
  "mode": "exact",
  "seed": 7
})";

TEST(ResultStore, RoundTripsAcrossReopen) {
  const std::string dir = fresh_dir("roundtrip");
  {
    ResultStore store(dir);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.loaded(), 0u);
    store.put("alpha", {123.0, 456});
    store.put("beta", {0.125, 7});        // fractional cycles stay bit-exact
    store.put("gamma", {1e18, 99});       // beyond uint64-exact double range
    EXPECT_EQ(store.appended(), 3u);
  }
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.loaded(), 3u);
  EXPECT_EQ(reopened.appended(), 0u);
  EXPECT_EQ(reopened.dropped_bytes(), 0u);
  ASSERT_NE(reopened.find("beta"), nullptr);
  EXPECT_EQ(reopened.find("beta")->cycles, 0.125);
  EXPECT_EQ(reopened.find("beta")->data_accesses, 7u);
  EXPECT_EQ(reopened.find("gamma")->cycles, 1e18);
  EXPECT_EQ(reopened.find("missing"), nullptr);
}

TEST(ResultStore, RePutSemantics) {
  ResultStore store(fresh_dir("reput"));
  store.put("key", {10.0, 20});
  store.put("key", {10.0, 20});  // identical: no-op, not a second record
  EXPECT_EQ(store.appended(), 1u);
  EXPECT_THROW(store.put("key", {11.0, 20}), SimError);  // drifted result
  EXPECT_THROW(store.put("", {1.0, 1}), SimError);       // empty key
}

TEST(ResultStore, TruncatedTailIsRecoveredAndAppendable) {
  const std::string dir = fresh_dir("truncated");
  {
    ResultStore store(dir);
    store.put("first", {1.0, 1});
    store.put("second", {2.0, 2});
    store.put("third", {3.0, 3});
  }
  // Simulate a kill mid-append: cut into the last record.
  std::vector<char> bytes = read_bytes(journal_of(dir));
  bytes.resize(bytes.size() - 5);
  write_bytes(journal_of(dir), bytes);

  {
    ResultStore store(dir);
    EXPECT_EQ(store.loaded(), 2u);
    EXPECT_GT(store.dropped_bytes(), 0u);
    EXPECT_EQ(store.find("third"), nullptr);
    ASSERT_NE(store.find("second"), nullptr);
    store.put("third", {3.0, 3});  // the journal stays appendable after recovery
  }
  ResultStore again(dir);
  EXPECT_EQ(again.loaded(), 3u);
  EXPECT_EQ(again.dropped_bytes(), 0u);
}

TEST(ResultStore, CorruptPayloadDropsTheTail) {
  const std::string dir = fresh_dir("corrupt");
  {
    ResultStore store(dir);
    store.put("first", {1.0, 1});
    store.put("second", {2.0, 2});
  }
  std::vector<char> bytes = read_bytes(journal_of(dir));
  bytes[bytes.size() - 3] ^= 0x40;  // flip a bit inside the last payload
  write_bytes(journal_of(dir), bytes);

  ResultStore store(dir);
  EXPECT_EQ(store.loaded(), 1u);
  EXPECT_GT(store.dropped_bytes(), 0u);
  ASSERT_NE(store.find("first"), nullptr);
  EXPECT_EQ(store.find("second"), nullptr);
}

TEST(ResultStore, ForeignOrDamagedHeaderRaisesSimError) {
  // A file that is not a journal at all.
  const std::string text_dir = fresh_dir("foreign");
  fs::create_directories(text_dir);
  {
    std::ofstream out(journal_of(text_dir));
    out << "suite,workload,cycles\n";
  }
  EXPECT_THROW(ResultStore{text_dir}, SimError);

  // A journal from a future format version.
  const std::string ver_dir = fresh_dir("version");
  { ResultStore store(ver_dir); }
  std::vector<char> bytes = read_bytes(journal_of(ver_dir));
  bytes[8] = 9;  // version field follows the 8-byte magic
  write_bytes(journal_of(ver_dir), bytes);
  EXPECT_THROW(ResultStore{ver_dir}, SimError);
}

TEST(ResultStore, HeaderTruncatedJournalRecoversLikeZeroBytes) {
  // A crash during the store's own initial header write leaves a strict
  // prefix of the header; that is recoverable. Any other short content is
  // a foreign file and must not be clobbered.
  const std::string dir = fresh_dir("headertrunc");
  { ResultStore store(dir); }
  std::vector<char> bytes = read_bytes(journal_of(dir));
  bytes.resize(5);  // "IMACR": mid-magic
  write_bytes(journal_of(dir), bytes);
  {
    ResultStore store(dir);
    EXPECT_EQ(store.loaded(), 0u);
    store.put("key", {1.0, 1});
  }
  EXPECT_EQ(ResultStore(dir).loaded(), 1u);

  const std::string foreign = fresh_dir("shortforeign");
  fs::create_directories(foreign);
  write_bytes(journal_of(foreign), {'I', 'M', 'A', 'X'});  // diverges mid-magic
  EXPECT_THROW(ResultStore{foreign}, SimError);
}

TEST(ResultStore, ZeroByteJournalIsTreatedAsNew) {
  const std::string dir = fresh_dir("zerobyte");
  fs::create_directories(dir);
  { std::ofstream out(journal_of(dir), std::ios::binary); }  // 0 bytes
  ResultStore store(dir);
  EXPECT_EQ(store.loaded(), 0u);
  store.put("key", {1.0, 1});
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.loaded(), 1u);
}

TEST(ResultStore, SelfConflictingJournalRaisesSimError) {
  // Hand-craft a journal whose two records disagree about one key — the
  // put() API can never produce this, but disk corruption or tampering
  // can, and replay must refuse it rather than silently pick a winner.
  const std::string dir = fresh_dir("selfconflict");
  { ResultStore store(dir); }
  std::vector<char> bytes = read_bytes(journal_of(dir));
  const auto append_record = [&bytes](const std::string& key, double cycles) {
    std::string payload;
    const auto put_u32 = [&payload](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) payload.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    const auto put_u64 = [&payload](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) payload.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    put_u32(static_cast<std::uint32_t>(key.size()));
    payload += key;
    std::uint64_t cycle_bits = 0;
    std::memcpy(&cycle_bits, &cycles, sizeof cycle_bits);
    put_u64(cycle_bits);
    put_u64(42);
    std::string header;
    for (const std::uint32_t v :
         {static_cast<std::uint32_t>(payload.size()), crc32(payload.data(), payload.size())})
      for (int i = 0; i < 4; ++i) header.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    for (const char c : header + payload) bytes.push_back(c);
  };
  append_record("key", 1.0);
  append_record("key", 2.0);
  write_bytes(journal_of(dir), bytes);
  EXPECT_THROW(ResultStore{dir}, SimError);
}

// --- sweep integration ----------------------------------------------------

TEST(ResultStoreSweep, ResumeServesWarmStoreWithZeroNewSimulations) {
  const std::string dir = fresh_dir("resume");
  const SweepSpec spec = parse_sweep_spec(kUnitSpec);
  const std::vector<SweepPoint> points = expand_sweep(spec);

  SweepReport cold;
  {
    ResultStore store(dir);
    cold = run_sweep(spec, points, /*threads=*/2, &store, /*resume=*/true);
    EXPECT_EQ(store.appended(), 6u);  // 3 workloads x 2 algorithms
  }
  {
    ResultStore store(dir);
    EXPECT_EQ(store.loaded(), 6u);
    const SweepReport warm = run_sweep(spec, points, /*threads=*/2, &store, /*resume=*/true);
    EXPECT_EQ(store.appended(), 0u);  // zero new simulations
    EXPECT_EQ(report_to_csv(warm), report_to_csv(cold));
  }
}

TEST(ResultStoreSweep, ResumeAfterKillMidSweepRunsOnlyTheMissingPoints) {
  const std::string dir = fresh_dir("kill");
  const SweepSpec spec = parse_sweep_spec(kUnitSpec);
  const std::vector<SweepPoint> points = expand_sweep(spec);
  SweepReport full;
  {
    ResultStore store(dir);
    full = run_sweep(spec, points, 2, &store, /*resume=*/true);
  }
  // "Kill" the process mid-append: chop into the final record so replay
  // recovers 5 of the 6 journaled measurements.
  std::vector<char> bytes = read_bytes(journal_of(dir));
  bytes.resize(bytes.size() - 3);
  write_bytes(journal_of(dir), bytes);

  ResultStore store(dir);
  EXPECT_EQ(store.loaded(), 5u);
  EXPECT_GT(store.dropped_bytes(), 0u);
  const SweepReport resumed = run_sweep(spec, points, 2, &store, /*resume=*/true);
  EXPECT_EQ(store.appended(), 1u);  // only the lost point is re-simulated
  EXPECT_EQ(report_to_csv(resumed), report_to_csv(full));
}

TEST(ResultStoreSweep, WarmStoreWithoutResumeCrossChecksDeterministically) {
  // --store without --resume: everything re-simulates, and the journal
  // accepts the identical results silently (the drift cross-check).
  const std::string dir = fresh_dir("nopreload");
  const SweepSpec spec = parse_sweep_spec(kUnitSpec);
  const std::vector<SweepPoint> points = expand_sweep(spec);
  {
    ResultStore store(dir);
    (void)run_sweep(spec, points, 2, &store);
    EXPECT_EQ(store.appended(), 6u);
  }
  {
    ResultStore store(dir);
    (void)run_sweep(spec, points, 2, &store);
    EXPECT_EQ(store.appended(), 0u);  // re-measured, matched, nothing re-journaled
  }
  // A journaled result the model no longer reproduces fails the sweep.
  const std::string key = grid_keys(spec, points).front();
  const std::string drifted = fresh_dir("drifted");
  {
    ResultStore store(drifted);
    store.put(key, StoredResult{1.0, 1});
  }
  ResultStore store(drifted);
  EXPECT_THROW((void)run_sweep(spec, points, 2, &store), SimError);
}

// --- sharding and merge ---------------------------------------------------

TEST(Sharding, ParseShardValidatesItsInput) {
  EXPECT_EQ(parse_shard("1/1").index, 1u);
  EXPECT_EQ(parse_shard("3/8").index, 3u);
  EXPECT_EQ(parse_shard("3/8").count, 8u);
  EXPECT_EQ(parse_shard("4096/4096").count, 4096u);
  for (const char* bad : {"", "/", "1/", "/2", "0/2", "3/2", "2", "a/b", "1/4097", "-1/2",
                          "1/2/3", "1 /2", "999999999999/999999999999"})
    EXPECT_THROW((void)parse_shard(bad), SimError) << bad;
}

TEST(Sharding, ShardsPartitionTheGridExactly) {
  const SweepSpec spec = parse_sweep_spec(kUnitSpec);
  const std::vector<SweepPoint> points = expand_sweep(spec);
  for (const unsigned n : {1u, 2u, 3u, 5u}) {
    std::size_t covered = 0;
    for (unsigned i = 1; i <= n; ++i) {
      const auto shard_points = filter_shard(spec, points, ShardSpec{i, n});
      covered += shard_points.size();
      // Every point a shard owns really maps to that shard.
      for (const SweepPoint& p : shard_points)
        EXPECT_TRUE(shard_owns(ShardSpec{i, n}, p.cache_key(spec)));
    }
    EXPECT_EQ(covered, points.size()) << "N=" << n;
  }
}

TEST(Sharding, TwoShardStoresMergeByteIdenticalToSingleRun) {
  const SweepSpec spec = parse_sweep_spec(kUnitSpec);
  const std::vector<SweepPoint> points = expand_sweep(spec);
  const SweepReport single = run_sweep(spec, points, 2);

  std::map<std::string, StoredResult> merged;
  std::vector<std::string> dirs;
  for (unsigned i = 1; i <= 2; ++i) {
    const std::string dir = fresh_dir("shard" + std::to_string(i));
    dirs.push_back(dir);
    ResultStore store(dir);
    (void)run_sweep(spec, filter_shard(spec, points, ShardSpec{i, 2}), 2, &store);
  }
  for (const std::string& dir : dirs) {
    const ResultStore store(dir);
    accumulate_results(store, merged);
  }
  const SweepReport fused = assemble_report(spec, merged);
  EXPECT_EQ(report_to_csv(fused), report_to_csv(single));
  EXPECT_EQ(fused.spec_hash, single.spec_hash);
}

TEST(Sharding, ShardReportsMergeLikeStores) {
  const SweepSpec spec = parse_sweep_spec(kUnitSpec);
  const std::vector<SweepPoint> points = expand_sweep(spec);
  const SweepReport single = run_sweep(spec, points, 2);

  std::map<std::string, StoredResult> merged;
  for (unsigned i = 1; i <= 2; ++i) {
    // Round-trip each shard through its rendered CSV, exactly like the CLI.
    const SweepReport shard = run_sweep(spec, filter_shard(spec, points, ShardSpec{i, 2}), 2);
    accumulate_results(spec, parse_csv_report(report_to_csv(shard)), merged);
  }
  const SweepReport fused = assemble_report(spec, merged);
  EXPECT_EQ(report_to_csv(fused), report_to_csv(single));
}

TEST(Sharding, SampledShardCsvsStillMergeToByteIdenticalCsv) {
  // Sampled-mode cycles are rounded to 2 decimals in CSV, but the
  // rounding is deterministic: merging shard CSVs must reproduce the
  // single-process CSV byte-for-byte even in sampled mode.
  const SweepSpec spec = parse_sweep_spec(R"({
    "name": "sampled-shards",
    "workloads": ["tiny"],
    "sparsities": ["1:4"],
    "algorithms": ["rowwise", "indexmac"],
    "mode": "sampled",
    "sample_rows": 8,
    "sample_full_strips": 2
  })");
  const std::vector<SweepPoint> points = expand_sweep(spec);
  const SweepReport single = run_sweep(spec, points, 2);
  std::map<std::string, StoredResult> merged;
  for (unsigned i = 1; i <= 2; ++i) {
    const SweepReport shard = run_sweep(spec, filter_shard(spec, points, ShardSpec{i, 2}), 2);
    accumulate_results(spec, parse_csv_report(report_to_csv(shard)), merged);
  }
  EXPECT_EQ(report_to_csv(assemble_report(spec, merged)), report_to_csv(single));
}

TEST(Sharding, MergeRefusesGapsAndConflicts) {
  const SweepSpec spec = parse_sweep_spec(kUnitSpec);
  const std::vector<SweepPoint> points = expand_sweep(spec);
  const SweepReport single = run_sweep(spec, points, 2);

  // A gap: one shard alone does not cover the grid.
  const auto half = filter_shard(spec, points, ShardSpec{1, 2});
  ASSERT_LT(half.size(), points.size());
  std::map<std::string, StoredResult> partial;
  accumulate_results(spec, run_sweep(spec, half, 2), partial);
  EXPECT_THROW((void)assemble_report(spec, partial), SimError);

  // A conflict: two inputs disagree about one measurement.
  std::map<std::string, StoredResult> merged;
  accumulate_results(spec, single, merged);
  SweepReport tampered = single;
  tampered.rows[0].cycles += 1.0;
  EXPECT_THROW(accumulate_results(spec, tampered, merged), SimError);
}

// --- durability levels ----------------------------------------------------

TEST(ResultStoreDurability, DefaultsToFlushAndFsyncEachIsOptIn) {
  const std::string dir = fresh_dir("durability_level");
  {
    ResultStore store(dir);
    EXPECT_EQ(store.durability(), Durability::kFlush);
  }
  {
    ResultStore store(dir, Durability::kFsyncEach);
    EXPECT_EQ(store.durability(), Durability::kFsyncEach);
    store.put("synced", {7.5, 77});
  }
  ResultStore reopened(dir);
  ASSERT_NE(reopened.find("synced"), nullptr);
  EXPECT_EQ(reopened.find("synced")->data_accesses, 77u);
}

TEST(ResultStoreDurability, SyncIsAManualBarrierOnAFlushStore) {
  const std::string dir = fresh_dir("durability_sync");
  ResultStore store(dir);  // kFlush
  store.put("a", {1.0, 1});
  store.put("b", {2.0, 2});
  store.sync();  // must not throw; both records now on stable storage
  // The journal is byte-complete after the barrier: a fresh reader (a
  // different FILE*, so no shared stdio buffering) sees both records.
  ResultStore probe(dir);
  EXPECT_EQ(probe.loaded(), 2u);
}

// --- fuzz: every-offset truncation and bit-flips --------------------------

/// The recovery contract, exhaustively: for EVERY byte offset of a
/// multi-record journal, truncating there must (a) never throw, (b) yield
/// a valid prefix of the original records, and (c) leave a journal that
/// accepts appends and replays them.
TEST(ResultStoreFuzz, TruncationAtEveryOffsetRecoversALongestValidPrefix) {
  const std::string dir = fresh_dir("fuzz_trunc");
  const std::vector<std::pair<std::string, StoredResult>> records = {
      {"k0", {1.5, 10}}, {"k1", {2.5, 20}}, {"key-the-third", {3.25, 30}}};
  {
    ResultStore store(dir);
    for (const auto& [key, result] : records) store.put(key, result);
  }
  const std::vector<char> pristine = read_bytes(journal_of(dir));
  std::size_t last_loaded = 0;
  for (std::size_t cut = 0; cut <= pristine.size(); ++cut) {
    write_bytes(journal_of(dir),
                std::vector<char>(pristine.begin(),
                                  pristine.begin() + static_cast<std::ptrdiff_t>(cut)));
    std::size_t loaded = 0;
    {
      ResultStore store(dir);  // must not throw at any cut
      loaded = store.loaded();
      ASSERT_LE(loaded, records.size()) << "cut=" << cut;
      // Whatever survived is a PREFIX with the original payloads — never a
      // reordered or half-parsed record.
      for (std::size_t i = 0; i < loaded; ++i) {
        const StoredResult* r = store.find(records[i].first);
        ASSERT_NE(r, nullptr) << "cut=" << cut << " record=" << i;
        EXPECT_EQ(*r, records[i].second) << "cut=" << cut << " record=" << i;
      }
      // Longest prefix: more bytes can only ever reveal more records.
      ASSERT_GE(loaded, last_loaded) << "cut=" << cut;
      last_loaded = loaded;
      // The recovered store accepts appends...
      store.put("appended", {9.0, 99});
    }
    // ...and the append replays next to the surviving prefix.
    ResultStore reopened(dir);
    EXPECT_EQ(reopened.loaded(), loaded + 1) << "cut=" << cut;
    ASSERT_NE(reopened.find("appended"), nullptr) << "cut=" << cut;
  }
  EXPECT_EQ(last_loaded, records.size());  // the full file replays fully
}

/// Single-bit corruption at every byte offset: a flipped header byte is a
/// loud SimError (magic/version are not recoverable by contract); a
/// flipped record byte is caught by the CRC (or the length/structure
/// checks) and recovery keeps a strict prefix, flagging the dropped tail
/// through dropped_bytes().
TEST(ResultStoreFuzz, BitFlipAtEveryOffsetIsCaughtAndFlagged) {
  const std::string dir = fresh_dir("fuzz_flip");
  const std::vector<std::pair<std::string, StoredResult>> records = {
      {"k0", {1.5, 10}}, {"k1", {2.5, 20}}, {"key-the-third", {3.25, 30}}};
  {
    ResultStore store(dir);
    for (const auto& [key, result] : records) store.put(key, result);
  }
  const std::vector<char> pristine = read_bytes(journal_of(dir));
  constexpr std::size_t kHeaderBytes = 12;  // 8-byte magic + u32 version
  for (std::size_t offset = 0; offset < pristine.size(); ++offset) {
    for (const unsigned char mask : {0x01u, 0x80u}) {  // low and high bit
      std::vector<char> flipped = pristine;
      flipped[offset] = static_cast<char>(static_cast<unsigned char>(flipped[offset]) ^ mask);
      write_bytes(journal_of(dir), flipped);
      if (offset < kHeaderBytes) {
        EXPECT_THROW((void)ResultStore(dir), SimError) << "offset=" << offset;
        continue;
      }
      ResultStore store(dir);  // record corruption must never throw
      EXPECT_LT(store.loaded(), records.size()) << "offset=" << offset;
      EXPECT_GT(store.dropped_bytes(), 0u) << "offset=" << offset;
      for (std::size_t i = 0; i < store.loaded(); ++i) {
        const StoredResult* r = store.find(records[i].first);
        ASSERT_NE(r, nullptr) << "offset=" << offset << " record=" << i;
        EXPECT_EQ(*r, records[i].second) << "offset=" << offset << " record=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace indexmac::core
