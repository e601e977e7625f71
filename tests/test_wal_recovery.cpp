// Crash-consistent checkpoint recovery: a complete cdsf.master_checkpoint/1
// document round-trips exactly, and a torn one (truncated at ANY byte)
// salvages a strict prefix of the WAL without ever throwing — the
// torn-write contract a recovery path must honor to be worth having — and
// restart reconciliation's scan of a salvaged log sees exactly that prefix.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/master_worker.hpp"
#include "sim/wal_recovery.hpp"
#include "test_support.hpp"

namespace cdsf::sim {
namespace {

using test::full_availability;
using test::simple_app;

bool records_equal(const WalRecord& a, const WalRecord& b) {
  return a.kind == b.kind && a.time == b.time && a.worker == b.worker && a.seq == b.seq &&
         a.first == b.first && a.count == b.count;
}

/// One checkpointed MPI run with the final state written to `path`.
RunResult checkpointed_run(const std::string& path) {
  SimConfig config;
  config.scheduling_overhead = 0.0;
  config.iteration_cov = 0.0;
  config.availability_mode = AvailabilityMode::kConstantMean;
  config.checkpoint.enabled = true;
  config.checkpoint.interval = 50.0;
  config.checkpoint.json_path = path;
  const auto app = simple_app("a", 0, 240, {500.0});
  return simulate_loop_mpi(app, 0, 3, full_availability(1), dls::TechniqueId::kFAC, config,
                           MessageModel{}, 11)
      .run;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(WalRecovery, KindNamesRoundTrip) {
  for (WalRecord::Kind kind :
       {WalRecord::Kind::kAssign, WalRecord::Kind::kAck, WalRecord::Kind::kComplete,
        WalRecord::Kind::kSnapshot, WalRecord::Kind::kRestart}) {
    EXPECT_EQ(wal_kind_from_name(wal_kind_name(kind)), kind);
  }
  EXPECT_THROW(wal_kind_from_name("checkpoint"), std::invalid_argument);
  EXPECT_THROW(wal_kind_from_name(""), std::invalid_argument);
}

TEST(WalRecovery, CompleteCheckpointRoundTripsExactly) {
  const std::string path = "wal_recovery_full.json";
  const RunResult run = checkpointed_run(path);
  ASSERT_FALSE(run.wal.empty());

  const RecoveredCheckpoint recovered = load_checkpoint_json(path);
  EXPECT_TRUE(recovered.complete);
  EXPECT_FALSE(recovered.torn);
  EXPECT_DOUBLE_EQ(recovered.makespan, run.makespan);
  EXPECT_EQ(recovered.wal_records, run.checkpoint.wal_records);
  EXPECT_EQ(recovered.snapshots, run.checkpoint.snapshots);
  EXPECT_EQ(recovered.master_restarts, run.checkpoint.master_restarts);
  ASSERT_EQ(recovered.wal.size(), run.wal.size());
  for (std::size_t i = 0; i < run.wal.size(); ++i) {
    EXPECT_TRUE(records_equal(recovered.wal[i], run.wal[i])) << "record " << i;
  }
  std::remove(path.c_str());
}

TEST(WalRecovery, TruncationSweepNeverThrowsAndSalvagesAPrefix) {
  const std::string path = "wal_recovery_sweep.json";
  const RunResult run = checkpointed_run(path);
  const std::string full = read_file(path);
  std::remove(path.c_str());
  ASSERT_FALSE(full.empty());

  std::size_t previous_records = 0;
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    RecoveredCheckpoint recovered;
    ASSERT_NO_THROW(recovered = recover_checkpoint_json(
                        std::string_view(full).substr(0, cut)))
        << "truncated at byte " << cut;
    // Whatever survived must be a prefix of the real log, record for
    // record — salvage may lose the tail, never invent or reorder.
    ASSERT_LE(recovered.wal.size(), run.wal.size()) << "truncated at byte " << cut;
    for (std::size_t i = 0; i < recovered.wal.size(); ++i) {
      ASSERT_TRUE(records_equal(recovered.wal[i], run.wal[i]))
          << "truncated at byte " << cut << ", record " << i;
    }
    // Longer prefixes never recover fewer records.
    ASSERT_GE(recovered.wal.size(), previous_records) << "truncated at byte " << cut;
    previous_records = recovered.wal.size();
    if (cut < full.size()) {
      // Cutting only trailing whitespace leaves the document complete;
      // any cut into the JSON itself must flag the tear.
      const bool only_whitespace_cut =
          full.find_first_not_of(" \n\r\t", cut) == std::string::npos;
      ASSERT_EQ(recovered.complete, only_whitespace_cut) << "truncated at byte " << cut;
      ASSERT_NE(recovered.torn, recovered.complete) << "truncated at byte " << cut;
    }
  }
  // The untruncated text is the complete document.
  const RecoveredCheckpoint whole = recover_checkpoint_json(full);
  EXPECT_TRUE(whole.complete);
  EXPECT_EQ(whole.wal.size(), run.wal.size());
}

TEST(WalRecovery, RestartScanOfASalvagedPrefixNeverRunsAhead) {
  const std::string path = "wal_recovery_scan.json";
  const RunResult run = checkpointed_run(path);
  const std::string full = read_file(path);
  std::remove(path.c_str());

  // A clean run leaves nothing in flight by its log: every worker's last
  // assignment was acked and completed, and each chunk completed once.
  const WalScan whole = scan_wal(run.wal, 3);
  EXPECT_EQ(whole.completions, run.total_chunks);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(whole.workers[w].assigned, run.workers[w].chunks) << "worker " << w;
    EXPECT_EQ(whole.workers[w].acked, whole.workers[w].assigned) << "worker " << w;
    EXPECT_EQ(whole.workers[w].completed, whole.workers[w].assigned) << "worker " << w;
  }
  // A restart from a torn checkpoint reconciles against exactly the
  // records that survived: its marks are those of the log's prefix and
  // never run ahead of the whole log.
  for (std::size_t cut = 0; cut <= full.size(); cut += 7) {
    const RecoveredCheckpoint torn =
        recover_checkpoint_json(std::string_view(full).substr(0, cut));
    const WalScan salvaged = scan_wal(torn.wal, 3);
    const std::vector<WalRecord> prefix(
        run.wal.begin(), run.wal.begin() + static_cast<std::ptrdiff_t>(torn.wal.size()));
    const WalScan expected = scan_wal(prefix, 3);
    ASSERT_EQ(salvaged.completions, expected.completions) << "truncated at byte " << cut;
    ASSERT_LE(salvaged.completions, whole.completions) << "truncated at byte " << cut;
    for (std::size_t w = 0; w < 3; ++w) {
      ASSERT_EQ(salvaged.workers[w], expected.workers[w]) << "truncated at byte " << cut;
      ASSERT_LE(salvaged.workers[w].completed, whole.workers[w].completed)
          << "truncated at byte " << cut;
    }
  }
  // A record naming a worker the run does not have is rejected.
  EXPECT_THROW((void)scan_wal(run.wal, 1), std::out_of_range);
}

TEST(WalRecovery, TornHeaderFieldIsNotTrustedMidNumber) {
  // A tear inside a number must drop the field, not silently shorten it:
  // "makespan": 1234.5 cut after "123" reads as 123 to a naive scanner.
  const std::string torn = "{\n  \"schema\": \"cdsf.master_checkpoint/1\",\n"
                           "  \"makespan\": 123";
  const RecoveredCheckpoint recovered = recover_checkpoint_json(torn);
  EXPECT_TRUE(recovered.torn);
  EXPECT_DOUBLE_EQ(recovered.makespan, 0.0);
}

TEST(WalRecovery, GarbageIsTornNotFatal) {
  for (const char* text : {"", "not json", "{\"schema\": 3", "[1, 2"}) {
    RecoveredCheckpoint recovered;
    EXPECT_NO_THROW(recovered = recover_checkpoint_json(text)) << text;
    EXPECT_TRUE(recovered.wal.empty()) << text;
  }
}

TEST(WalRecovery, CompleteDocumentWithWrongSchemaThrows) {
  // A complete parse that is NOT a master checkpoint is a different
  // corruption class than a torn write and must be loud, not salvaged.
  EXPECT_THROW((void)recover_checkpoint_json("{\"schema\": \"cdsf.flight_record/1\"}"),
               std::runtime_error);
  EXPECT_THROW((void)recover_checkpoint_json("{}"), std::runtime_error);
}

TEST(WalRecovery, MissingFileThrows) {
  EXPECT_THROW((void)load_checkpoint_json("wal_recovery_does_not_exist.json"),
               std::runtime_error);
}

TEST(WalRecovery, CheckpointWriteToAFullDiskThrows) {
  // /dev/full accepts the open and fails every write with ENOSPC: the
  // buffered checkpoint only fails once it is flushed, and a run that
  // returned normally would claim a durable checkpoint it never wrote.
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "/dev/full is not writable here";
  EXPECT_THROW(checkpointed_run("/dev/full"), std::runtime_error);
}

}  // namespace
}  // namespace cdsf::sim
