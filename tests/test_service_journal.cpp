// The service request journal: round-trip, idempotent dedup, the
// exactly-once replay set, and — the torn-write contract — a byte-level
// truncation sweep in which recovery never throws, always yields a
// record-for-record prefix, and flags any cut into the JSON as a tear.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>

#include "svc/journal.hpp"
#include "svc/request.hpp"

namespace cdsf::svc {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ScenarioRequest request(std::uint64_t id, double arrival, const std::string& text) {
  ScenarioRequest r;
  r.id = id;
  r.arrival = arrival;
  r.scenario_text = text;
  r.seed = 1000 + id;
  return r;
}

/// Writes a journal with three accepted requests, two completed.
std::string write_sample(const std::string& path) {
  RequestJournal journal;
  journal.open(path, true);
  journal.append_accepted(request(1, 1.5, "[batch]\napp = a\n"));
  journal.append_accepted(request(2, 2.25, "!! poison !!"));
  journal.append_completed(1, RequestOutcome::kCompleted, 0xDEADBEEFCAFEF00DULL);
  journal.append_accepted(request(3, 4.0, "[batch]\napp = c\n"));
  journal.append_completed(2, RequestOutcome::kPoisoned, 0x1ULL);
  return read_file(path);
}

TEST(ServiceJournal, RoundTripsAndComputesTheReplaySet) {
  const std::string path = "service_journal_roundtrip.jsonl";
  write_sample(path);
  const RecoveredJournal recovered = load_journal(path);
  std::remove(path.c_str());

  EXPECT_TRUE(recovered.header_ok);
  EXPECT_FALSE(recovered.torn);
  ASSERT_EQ(recovered.accepted.size(), 3u);
  EXPECT_EQ(recovered.accepted[0].id, 1u);
  EXPECT_EQ(recovered.accepted[1].scenario_text, "!! poison !!");
  EXPECT_DOUBLE_EQ(recovered.accepted[2].arrival, 4.0);
  EXPECT_EQ(recovered.accepted[2].seed, 1003u);
  ASSERT_EQ(recovered.completed.size(), 2u);
  EXPECT_EQ(recovered.completed[0].digest, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(recovered.completed[1].outcome, RequestOutcome::kPoisoned);

  const std::vector<ScenarioRequest> replay = recovered.unfinished();
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].id, 3u);
  EXPECT_TRUE(replay[0].replayed);
}

TEST(ServiceJournal, MissingFileIsAFreshJournal) {
  const RecoveredJournal recovered = load_journal("service_journal_missing.jsonl");
  EXPECT_FALSE(recovered.header_ok);
  EXPECT_FALSE(recovered.torn);
  EXPECT_TRUE(recovered.accepted.empty());
  EXPECT_TRUE(recovered.unfinished().empty());
}

TEST(ServiceJournal, DuplicateRecordsDedupFirstWins) {
  // Repeated crash/restart cycles can append duplicate completed records;
  // recovery must be idempotent.
  const std::string path = "service_journal_dedup.jsonl";
  {
    RequestJournal journal;
    journal.open(path, true);
    journal.append_accepted(request(7, 1.0, "a"));
    journal.append_accepted(request(7, 9.0, "b"));  // duplicate id
    journal.append_completed(7, RequestOutcome::kCompleted, 0x10ULL);
    journal.append_completed(7, RequestOutcome::kFailed, 0x20ULL);
  }
  const RecoveredJournal recovered = load_journal(path);
  std::remove(path.c_str());
  ASSERT_EQ(recovered.accepted.size(), 1u);
  EXPECT_EQ(recovered.accepted[0].scenario_text, "a");
  ASSERT_EQ(recovered.completed.size(), 1u);
  EXPECT_EQ(recovered.completed[0].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(recovered.completed[0].digest, 0x10ULL);
  EXPECT_TRUE(recovered.unfinished().empty());
}

TEST(ServiceJournal, AppendModePreservesExistingRecords) {
  const std::string path = "service_journal_append.jsonl";
  write_sample(path);
  {
    RequestJournal journal;
    journal.open(path, false);  // restart appends, header not rewritten
    journal.append_completed(3, RequestOutcome::kCompleted, 0x33ULL);
  }
  const RecoveredJournal recovered = load_journal(path);
  std::remove(path.c_str());
  EXPECT_TRUE(recovered.header_ok);
  EXPECT_EQ(recovered.accepted.size(), 3u);
  EXPECT_EQ(recovered.completed.size(), 3u);
  EXPECT_TRUE(recovered.unfinished().empty());
}

TEST(ServiceJournal, TruncationSweepNeverThrowsAndSalvagesAPrefix) {
  const std::string path = "service_journal_sweep.jsonl";
  const std::string full = write_sample(path);
  std::remove(path.c_str());
  ASSERT_FALSE(full.empty());
  const RecoveredJournal whole = recover_journal_text(full);
  ASSERT_EQ(whole.accepted.size(), 3u);
  ASSERT_EQ(whole.completed.size(), 2u);

  // Offsets just past each record's closing brace: a cut whose non-
  // whitespace content ends exactly there leaves a complete (if shorter)
  // journal; any other cut tears the record being appended.
  std::unordered_set<std::size_t> object_ends;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '}') object_ends.insert(i + 1);
  }

  std::size_t previous_accepted = 0, previous_completed = 0;
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    RecoveredJournal recovered;
    ASSERT_NO_THROW(recovered = recover_journal_text(
                        std::string_view(full).substr(0, cut)))
        << "truncated at byte " << cut;
    // Prefix property: whatever survived matches the real log, record
    // for record — salvage may lose the tail, never invent or reorder.
    ASSERT_LE(recovered.accepted.size(), whole.accepted.size())
        << "truncated at byte " << cut;
    for (std::size_t i = 0; i < recovered.accepted.size(); ++i) {
      ASSERT_EQ(recovered.accepted[i].id, whole.accepted[i].id)
          << "truncated at byte " << cut;
      ASSERT_EQ(recovered.accepted[i].scenario_text, whole.accepted[i].scenario_text)
          << "truncated at byte " << cut;
    }
    ASSERT_LE(recovered.completed.size(), whole.completed.size())
        << "truncated at byte " << cut;
    for (std::size_t i = 0; i < recovered.completed.size(); ++i) {
      ASSERT_EQ(recovered.completed[i].id, whole.completed[i].id)
          << "truncated at byte " << cut;
      ASSERT_EQ(recovered.completed[i].digest, whole.completed[i].digest)
          << "truncated at byte " << cut;
    }
    // Monotone: longer prefixes never recover fewer records.
    ASSERT_GE(recovered.accepted.size(), previous_accepted)
        << "truncated at byte " << cut;
    ASSERT_GE(recovered.completed.size(), previous_completed)
        << "truncated at byte " << cut;
    previous_accepted = recovered.accepted.size();
    previous_completed = recovered.completed.size();
    // Tear detection. The journal is JSONL: a cut whose content ends at a
    // record boundary leaves a clean shorter journal (indistinguishable
    // from a crash between appends), while a cut mid-record leaves a
    // partial object — exactly what `torn` must flag.
    const std::string_view prefix = std::string_view(full).substr(0, cut);
    const std::size_t content_end = prefix.find_last_not_of(" \n\r\t") + 1;
    const bool cut_mid_record =
        content_end != 0 && object_ends.count(content_end) == 0;
    ASSERT_EQ(recovered.torn, cut_mid_record) << "truncated at byte " << cut;
  }
  EXPECT_FALSE(whole.torn);
}

TEST(ServiceJournal, GarbageIsSalvagedNotFatal) {
  for (const char* text :
       {"", "not json", "{\"schema\": 3", "[1, 2", "{\"kind\":\"accepted\"",
        "{\"schema\":\"cdsf.flight_record/1\"}\n{\"kind\":\"accepted\",\"id\":1}"}) {
    RecoveredJournal recovered;
    EXPECT_NO_THROW(recovered = recover_journal_text(text)) << text;
    EXPECT_TRUE(recovered.unfinished().empty()) << text;
  }
  // A journal whose header carries a different schema salvages nothing
  // after the header — those records belong to some other format.
  const RecoveredJournal wrong = recover_journal_text(
      "{\"schema\":\"cdsf.flight_record/1\"}\n"
      "{\"kind\":\"accepted\",\"id\":1,\"arrival\":0.5,\"seed\":2,\"scenario\":\"x\"}\n");
  EXPECT_FALSE(wrong.header_ok);
  EXPECT_TRUE(wrong.accepted.empty());
}

TEST(ServiceJournal, DigestHexRoundTripsThroughTheFile) {
  const std::string path = "service_journal_digest.jsonl";
  const std::uint64_t digest = fnv1a64("the report bytes");
  {
    RequestJournal journal;
    journal.open(path, true);
    journal.append_accepted(request(9, 0.25, "t"));
    journal.append_completed(9, RequestOutcome::kCompleted, digest);
  }
  const RecoveredJournal recovered = load_journal(path);
  std::remove(path.c_str());
  ASSERT_EQ(recovered.completed.size(), 1u);
  EXPECT_EQ(recovered.completed[0].digest, digest);
}

TEST(ServiceJournal, AppendToAFullDiskThrows) {
  // /dev/full accepts the open and fails every write with ENOSPC. The
  // header goes through the same flushed append as every record, so a
  // journal that cannot persist fails before any request is acked.
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "/dev/full is not writable here";
  for (bool truncate : {true, false}) {
    RequestJournal journal;
    EXPECT_THROW(journal.open("/dev/full", truncate), std::runtime_error) << truncate;
  }
}

}  // namespace
}  // namespace cdsf::svc
