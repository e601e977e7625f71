// The master's log: the cdsf.master_checkpoint/1 document, written and
// read here, and the write-ahead-log scan behind restart reconciliation.
//
// write_checkpoint_json serializes the master's final durable state —
// snapshot counters plus the full write-ahead log — as a
// cdsf.master_checkpoint/1 document. A real crash can TEAR that write: the
// process dies mid-flush and the file on disk is an arbitrary byte prefix
// of the intended document. A recovery tool that chokes on its own torn
// checkpoint defeats the point of having one, so this module implements
// prefix salvage: a complete document parses exactly; a torn one yields
// every header field and every WAL record that survived intact, and
// nothing else. The guarantee (checked by a byte-level truncation sweep in
// tests/test_wal_recovery.cpp) is that recovery NEVER throws on a
// truncated checkpoint and the salvaged WAL is always a prefix of the
// original log — the same contract the master's own restart
// reconciliation relies on (an unacked tail is re-dispatched, never
// half-applied).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/loop_executor.hpp"

namespace cdsf::sim {

/// The torn-write salvage primitive shared by checkpoint recovery and the
/// scheduling service's request journal (svc/journal.*): starting at
/// `from`, skips whitespace and commas, then collects every balanced
/// top-level `{...}` object in sequence. Brace matching tracks JSON string
/// and escape state, so a tear inside a quoted value can never fake an
/// object boundary. Stops (returning what it has) at the first non-object
/// byte (e.g. a closing ']'), at a tear that leaves an object unbalanced,
/// or at end of text — so the returned views are always a PREFIX of the
/// objects the writer emitted whole. Never throws; the views alias `text`.
[[nodiscard]] std::vector<std::string_view> salvage_object_stream(std::string_view text,
                                                                  std::size_t from = 0);

/// Stable identifier of a WAL record kind ("assign", "ack", "complete",
/// "snapshot", "restart") — the serialization used by the checkpoint JSON.
[[nodiscard]] const char* wal_kind_name(WalRecord::Kind kind);

/// Inverse of wal_kind_name. Throws std::invalid_argument on an unknown
/// name.
[[nodiscard]] WalRecord::Kind wal_kind_from_name(const std::string& name);

/// What recovery salvaged from a (possibly torn) checkpoint document.
struct RecoveredCheckpoint {
  /// The document parsed whole and carried the expected schema.
  bool complete = false;
  /// Prefix salvage engaged: the text was not a complete document, so the
  /// fields below hold whatever could be recovered (possibly nothing).
  bool torn = false;
  double makespan = 0.0;
  std::uint64_t wal_records = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t master_restarts = 0;
  /// The salvaged log — the full WAL when `complete`, otherwise the
  /// longest prefix whose records all survived the tear intact.
  std::vector<WalRecord> wal;
};

/// Recovers a checkpoint from raw text. A complete, schema-correct
/// document yields complete == true and exact fields; anything else
/// (truncation at any byte, arbitrary garbage) yields torn == true and a
/// best-effort salvage. Never throws on torn input; throws
/// std::runtime_error only when a COMPLETE document carries the wrong
/// schema — that is corruption of a different kind, not a torn write.
[[nodiscard]] RecoveredCheckpoint recover_checkpoint_json(std::string_view text);

/// Reads `path` and delegates to recover_checkpoint_json. Throws
/// std::runtime_error when the file cannot be read.
[[nodiscard]] RecoveredCheckpoint load_checkpoint_json(const std::string& path);

/// Writes `run`'s final checkpoint state (makespan, WAL and snapshot
/// counters, the full WAL) to `path`. Throws std::runtime_error when the
/// file cannot be written in full.
void write_checkpoint_json(const std::string& path, const RunResult& run);

/// A write-ahead log's highest assignment, ack and completion sequence
/// numbers for one worker (0 when none).
struct WalMarks {
  std::uint64_t assigned = 0;
  std::uint64_t acked = 0;
  std::uint64_t completed = 0;

  friend bool operator==(const WalMarks&, const WalMarks&) = default;
};

/// Restart reconciliation's scan of a log, whole or salvaged: the marks of
/// each of `workers` workers and the number of completion records (each
/// replayed into the report dedup table). Throws std::out_of_range for a
/// record naming a worker >= `workers`.
struct WalScan {
  std::vector<WalMarks> workers;
  std::uint64_t completions = 0;
};

[[nodiscard]] WalScan scan_wal(const std::vector<WalRecord>& wal, std::size_t workers);

}  // namespace cdsf::sim
