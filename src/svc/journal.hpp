// The crash-safe request journal (schema cdsf.service_journal/1).
//
// The service's durability contract is ack-after-append: a request is
// ACCEPTED only after its record is written AND flushed, and a report is
// final only after its completed record is. The file is JSONL — one
// compact JSON object per line, a header object first:
//
//   {"schema":"cdsf.service_journal/1"}
//   {"kind":"accepted","id":3,"arrival":7.25,"seed":123,"scenario":"..."}
//   {"kind":"completed","id":3,"outcome":"completed","digest":"0x1a2b..."}
//
// A crash can tear the final append; recovery reuses the WAL salvage
// primitive (sim::salvage_object_stream) so a torn tail costs exactly the
// record being written — which, under ack-after-append, was never acked.
// Replay is then a set subtraction: accepted records without a matching
// completed record are the exactly-once replay set. Records are
// deduplicated by id (first wins), so recovery is idempotent across
// repeated crash/restart cycles. A byte-level truncation sweep
// (tests/test_service_journal.cpp) checks that recovery never throws and
// always yields a record-for-record prefix.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "svc/request.hpp"

namespace cdsf::svc {

/// `schema` of the journal header line.
inline constexpr const char* kServiceJournalSchema = "cdsf.service_journal/1";

/// FNV-1a 64-bit digest — the report fingerprint stored in completed
/// records, so replay tooling can detect a re-delivered report that does
/// not match the journaled one.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// One salvaged completed record.
struct JournalCompletion {
  std::uint64_t id = 0;
  RequestOutcome outcome = RequestOutcome::kCompleted;
  std::uint64_t digest = 0;
};

/// What recovery salvaged from a (possibly torn) journal.
struct RecoveredJournal {
  /// The header line survived and carried the expected schema. False on
  /// an empty or headerless file — salvage still proceeds.
  bool header_ok = false;
  /// Non-whitespace bytes remained after the last salvaged record — the
  /// tail was torn mid-append (and therefore never acked).
  bool torn = false;
  /// Accepted records in append order, deduplicated by id (first wins).
  std::vector<ScenarioRequest> accepted;
  /// Completed records, deduplicated by id (first wins).
  std::vector<JournalCompletion> completed;

  /// The exactly-once replay set: accepted requests with no completed
  /// record, in append order, with `replayed` set so the restarted
  /// service does not journal them again.
  [[nodiscard]] std::vector<ScenarioRequest> unfinished() const;
};

/// Salvages a journal from raw text. Never throws: any byte prefix of a
/// valid journal yields the records that survived whole, and nothing
/// else.
[[nodiscard]] RecoveredJournal recover_journal_text(std::string_view text);

/// Reads `path` and delegates to recover_journal_text. A missing file is
/// a fresh journal (empty recovery, header_ok == false), not an error;
/// any other read failure throws std::runtime_error.
[[nodiscard]] RecoveredJournal load_journal(const std::string& path);

/// The append side. Default-constructed inert (no journal configured);
/// open() arms it.
class RequestJournal {
 public:
  RequestJournal() = default;

  /// Opens `path` for appending. `truncate` starts a fresh journal
  /// (header rewritten); otherwise appends after the existing content,
  /// writing the header only when the file is new or empty. Throws
  /// std::runtime_error when the file cannot be opened or the header
  /// cannot be written.
  void open(const std::string& path, bool truncate);

  [[nodiscard]] bool active() const noexcept { return out_.is_open(); }

  /// Appends (and flushes — the ack barrier) an accepted record. No-op
  /// when inert. Throws std::runtime_error when the record cannot be
  /// written, so the request is never acked.
  void append_accepted(const ScenarioRequest& request);

  /// Appends (and flushes) a completed record. No-op when inert. Throws
  /// like append_accepted.
  void append_completed(std::uint64_t id, RequestOutcome outcome, std::uint64_t digest);

 private:
  void append_line(const std::string& line);
  std::ofstream out_;
  std::string path_;
};

}  // namespace cdsf::svc
