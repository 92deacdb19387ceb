// Persistent sweep-result store: an append-only on-disk journal of
// completed measurements (canonical cache key -> headline metrics) that
// survives process death, so repeated, resumed, and sharded sweeps are
// served from disk instead of re-simulated.
//
// The normative spec of the journal format also lives in
// docs/formats.md ("Result-store journal"); keep the two in sync.
//
// On-disk format (DIR/results.journal, little-endian):
//
//   header   8-byte magic "IMACRES\n" | u32 format version (currently 1)
//   record*  u32 payload_len | u32 crc32(payload) | payload
//   payload  u32 key_len | key bytes | u64 cycles (IEEE-754 bits) |
//            u64 data_accesses
//
// Every put() appends one record and flushes, so a killed sweep leaves at
// worst a truncated final record. Opening a store recovers the longest
// valid record prefix: a truncated or CRC-failing tail is discarded and
// the file truncated back to the last good record (nothing after a corrupt
// record can be trusted — lengths themselves may be garbage). A bad header
// is not recoverable and raises SimError, as does a journal that asserts
// two different results for the same key (no silent wrong merges).
//
// Durability levels (chosen at open time; see Durability):
//
//   kFlush (default)  put() returns after fwrite + fflush: the record is
//                     in the kernel page cache. Survives any death of THIS
//                     PROCESS (kill -9, abort, crash) because the OS owns
//                     the bytes — but NOT an OS crash or power loss, which
//                     can lose any number of recent records (recovery then
//                     still yields a valid prefix, just a shorter one).
//   kFsyncEach        put() additionally fsync()s the journal before
//                     returning: once put() completes, the record
//                     survives power loss and host crashes. Costs
//                     one disk flush per record; opt in for runs whose
//                     points are expensive relative to an fsync.
//
//   sync() offers the intermediate point regardless of level: callers that
//   batch cheap points under kFlush can fsync at their own barriers
//   (shutdown, final report) without paying per-record latency.
//
// One store = one writer process. Shards must use separate stores (one per
// shard) and be fused with merge tooling; see core/sweep.h.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

namespace indexmac::core {

/// The journaled metrics of one measurement — exactly the fields a sweep
/// report row consumes. (Full TimingStats are deliberately not persisted:
/// reports never read them, and the journal stays format-stable.)
struct StoredResult {
  double cycles = 0;
  std::uint64_t data_accesses = 0;

  [[nodiscard]] bool operator==(const StoredResult& o) const {
    return cycles == o.cycles && data_accesses == o.data_accesses;
  }
};

/// Crash-persistence guarantee of each appended record; see the header
/// comment for the exact contract of each level.
enum class Durability {
  kFlush,      ///< fflush per record: survives process death only
  kFsyncEach,  ///< + fsync per record: survives power loss / host crash
};

/// An open result store rooted at a directory. Thread-safe; find() and
/// put() may race from run_batch's completion callback on its workers.
class ResultStore {
 public:
  /// Opens (or creates) DIR and DIR/results.journal, replaying every valid
  /// record. Throws SimError when the directory cannot be created, the
  /// journal has a foreign magic/version, or replay finds conflicting
  /// records for one key. A truncated/corrupt tail is recovered by
  /// truncation (see dropped_bytes()).
  explicit ResultStore(const std::string& dir, Durability durability = Durability::kFlush);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Returns the stored metrics for `key`, or nullptr.
  [[nodiscard]] const StoredResult* find(const std::string& key) const;

  /// Journals one completed measurement. Re-putting an identical result is
  /// a no-op; a *different* result for a known key throws SimError (the
  /// timing model drifted under the store — delete the store directory or
  /// point the sweep at a fresh one).
  void put(const std::string& key, const StoredResult& result);

  /// All stored results, for merge tooling. Not synchronized against
  /// concurrent put(); call only when no sweep is running on this store.
  [[nodiscard]] const std::map<std::string, StoredResult>& results() const { return results_; }

  /// Forces every record appended so far onto stable storage (fflush +
  /// fsync), regardless of the open-time durability level. The manual
  /// barrier for kFlush stores: `imac_run sweep --store` calls it before
  /// writing its report.
  void sync();

  [[nodiscard]] Durability durability() const { return durability_; }

  [[nodiscard]] std::size_t size() const;
  /// Records replayed from disk when the store was opened.
  [[nodiscard]] std::uint64_t loaded() const { return loaded_; }
  /// Records appended by this process (the "new simulations" counter).
  [[nodiscard]] std::uint64_t appended() const;
  /// Bytes of truncated/corrupt tail discarded during open-time recovery.
  [[nodiscard]] std::uint64_t dropped_bytes() const { return dropped_bytes_; }

  [[nodiscard]] const std::string& journal_path() const { return path_; }

  static constexpr const char* kJournalName = "results.journal";

 private:
  void replay_journal();

  std::string path_;
  Durability durability_ = Durability::kFlush;
  std::FILE* file_ = nullptr;  ///< append handle, opened after replay
  mutable std::mutex mutex_;
  std::map<std::string, StoredResult> results_;
  std::uint64_t loaded_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t dropped_bytes_ = 0;
};

}  // namespace indexmac::core
