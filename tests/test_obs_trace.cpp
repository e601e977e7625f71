// TraceSink: golden Chrome trace_event JSON for a hand-built run (every
// byte of the emitted events is pinned), lost-chunk clamping, framework
// markers, and determinism of the trace for a real simulated run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/loop_executor.hpp"

namespace cdsf::obs {
namespace {

/// Two workers; worker 1 crashes at t = 5 with a 4-iteration chunk in
/// flight (would-be end time +infinity). Small enough that the expected
/// trace can be written down event by event.
sim::RunResult tiny_run() {
  sim::RunResult run;
  run.makespan = 10.0;
  run.serial_end = 2.0;
  run.total_chunks = 2;
  run.workers.resize(2);
  run.trace = {
      {0, 4, 2.0, 2.5, 6.5, false},
      {1, 4, 2.0, 2.5, std::numeric_limits<double>::infinity(), true},
  };
  run.events = {
      {obs::FlightEventKind::kWorkerCrashed, 5.0, 1, 0},
      {obs::FlightEventKind::kChunkLost, 5.0, 1, 4},
  };
  return run;
}

TEST(ObsTrace, GoldenTraceForTinyRun) {
  TraceSink sink;
  TraceSink::RunOptions options;
  options.pid = 0;
  options.process_name = "tiny";
  options.epoch_length = 4.0;
  sink.append_run(tiny_run(), options);

  const std::vector<std::string> expected = {
      R"({"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"tiny"}})",
      R"({"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"worker 0"}})",
      R"({"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"worker 1"}})",
      R"({"name":"serial","cat":"serial","ts":0,"pid":0,"tid":0,"ph":"X","dur":2})",
      R"({"name":"dispatch","cat":"overhead","ts":2,"pid":0,"tid":0,"ph":"X","dur":0.5})",
      R"({"name":"chunk","cat":"chunk","ts":2.5,"pid":0,"tid":0,"ph":"X","dur":4,)"
      R"("args":{"iterations":4,"lost":false}})",
      R"({"name":"dispatch","cat":"overhead","ts":2,"pid":0,"tid":1,"ph":"X","dur":0.5})",
      // Lost chunk: slice clamped to the crash instant (dur 2.5, not inf).
      R"({"name":"chunk","cat":"chunk,lost","ts":2.5,"pid":0,"tid":1,"ph":"X","dur":2.5,)"
      R"("args":{"iterations":4,"lost":true}})",
      R"({"name":"worker_crash","cat":"lifecycle","ts":5,"pid":0,"tid":1,"ph":"i","s":"t",)"
      R"("args":{"worker":1}})",
      R"({"name":"chunk_reclaimed","cat":"lifecycle","ts":5,"pid":0,"tid":1,"ph":"i","s":"t",)"
      R"("args":{"worker":1,"value":4}})",
      R"({"name":"availability_epoch","cat":"epoch","ts":4,"pid":0,"tid":0,"ph":"i","s":"p"})",
      R"({"name":"availability_epoch","cat":"epoch","ts":8,"pid":0,"tid":0,"ph":"i","s":"p"})",
  };

  const Json doc = sink.to_json();
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), expected.size());
  ASSERT_EQ(sink.event_count(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(events.at(i).dump(), expected[i]) << "event " << i;
  }
}

TEST(ObsTrace, EveryKindKeepsItsFlightRecordAndPerfettoName) {
  // Keyed by enumerator, so a name table that drifts out of enum order
  // fails here. Flight-only kinds have no Perfetto name.
  struct Names {
    FlightEventKind kind;
    const char* flight;
    const char* perfetto;
  };
  using K = FlightEventKind;
  const std::vector<Names> names = {
      {K::kWorkerCrashed, "worker_crashed", "worker_crash"},
      {K::kWorkerRecovered, "worker_recovered", "worker_recover"},
      {K::kWorkerSuspected, "worker_suspected", "worker_suspected"},
      {K::kWorkerDeclaredDead, "worker_declared_dead", "worker_declared_dead"},
      {K::kWorkerReinstated, "worker_reinstated", "worker_reinstated"},
      {K::kChunkLost, "chunk_lost", "chunk_reclaimed"},
      {K::kStragglerFlagged, "straggler_flagged", "chunk_straggler"},
      {K::kBackupLaunched, "backup_launched", "chunk_backup"},
      {K::kChunkCancelled, "chunk_cancelled", "chunk_cancelled"},
      {K::kRiskEscalated, "risk_escalated", "risk_escalated"},
      {K::kRetransmit, "retransmit", "assignment_retransmit"},
      {K::kDedupHit, "dedup_hit", "dedup_hit"},
      {K::kMasterCrashed, "master_crashed", "master_crash"},
      {K::kMasterRestarted, "master_restarted", "master_restart"},
      {K::kCheckpoint, "checkpoint", "checkpoint"},
      {K::kWorkerQuarantined, "worker_quarantined", "worker_quarantined"},
      {K::kCanaryProbe, "canary_probe", "quarantine_probe"},
      {K::kWorkerRestored, "worker_restored", "worker_restored"},
      {K::kAuditLaunched, "audit_launched", "audit_launched"},
      {K::kAuditMismatch, "audit_mismatch", "audit_mismatch"},
      {K::kMessageCorrupted, "message_corrupted", "message_corrupted"},
      {K::kChunkDispatched, "chunk_dispatched", nullptr},
      {K::kChunkAccepted, "chunk_accepted", nullptr},
      {K::kBackupWon, "backup_won", nullptr},
      {K::kRemapTriggered, "remap_triggered", nullptr},
      {K::kWalAppend, "wal_append", nullptr},
      {K::kAdmissionRejected, "admission_rejected", nullptr},
      {K::kJobShed, "job_shed", nullptr},
      {K::kOverloadTierChanged, "overload_tier_changed", nullptr},
      {K::kRequestAdmitted, "request_admitted", nullptr},
      {K::kSolveHedged, "solve_hedged", nullptr},
      {K::kSolveTimeout, "solve_timeout", nullptr},
      {K::kDrainComplete, "drain_complete", nullptr},
  };
  ASSERT_EQ(names.size(), kFlightEventKinds);
  sim::RunResult run;
  run.workers.resize(1);
  for (const Names& n : names) {
    EXPECT_STREQ(flight_event_name(n.kind), n.flight);
    EXPECT_EQ(is_lifecycle_kind(n.kind), n.perfetto != nullptr) << n.flight;
    if (n.perfetto != nullptr) run.events.push_back({n.kind, 1.0, 0, 0});
  }
  TraceSink sink;
  sink.append_run(run, TraceSink::RunOptions{});
  const Json doc = sink.to_json();
  std::vector<std::string> rendered;
  for (const Json& event : doc.at("traceEvents").items()) {
    const Json* category = event.find("cat");
    if (category != nullptr && category->as_string() == "lifecycle") {
      rendered.push_back(event.at("name").as_string());
    }
  }
  ASSERT_EQ(rendered.size(), kLifecycleKinds);
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    EXPECT_EQ(rendered[i], names[i].perfetto);
  }
}

TEST(ObsTrace, LostChunkWithoutCrashEventClampsToMakespan) {
  sim::RunResult run;
  run.makespan = 10.0;
  run.workers.resize(1);
  run.total_chunks = 1;
  run.trace = {{0, 4, 0.0, 0.0, std::numeric_limits<double>::infinity(), true}};

  TraceSink sink;
  sink.append_run(run, TraceSink::RunOptions{});
  ASSERT_EQ(sink.event_count(), 2u);  // thread_name + the chunk slice
  const Json doc = sink.to_json();
  const Json& chunk = doc.at("traceEvents").at(1);
  EXPECT_EQ(chunk.at("cat").as_string(), "chunk,lost");
  EXPECT_DOUBLE_EQ(chunk.at("dur").as_double(), 10.0);
}

TEST(ObsTrace, TimeScaleAppliesToTimestampsAndDurations) {
  TraceSink sink(1000.0);
  sink.add_complete(0, 0, 1.5, 2.0, "work");
  const Json doc = sink.to_json();
  const Json& slice = doc.at("traceEvents").at(0);
  EXPECT_DOUBLE_EQ(slice.at("ts").as_double(), 1500.0);
  EXPECT_DOUBLE_EQ(slice.at("dur").as_double(), 2000.0);
}

TEST(ObsTrace, FrameworkEventsLandOnTheFrameworkTrack) {
  TraceSink sink;
  Json args = Json::object();
  args.set("phi1", 0.875);
  sink.add_framework_event(0.0, "stage1_allocation", std::move(args));
  const Json doc = sink.to_json();
  const Json& event = doc.at("traceEvents").at(0);
  EXPECT_EQ(event.at("name").as_string(), "stage1_allocation");
  EXPECT_EQ(event.at("cat").as_string(), "framework");
  EXPECT_EQ(event.at("pid").as_int(), TraceSink::kFrameworkPid);
  EXPECT_EQ(event.at("s").as_string(), "p");
  EXPECT_DOUBLE_EQ(event.at("args").at("phi1").as_double(), 0.875);
}

TEST(ObsTrace, AppendRunRejectsRunsWithoutWorkers) {
  TraceSink sink;
  EXPECT_THROW(sink.append_run(sim::RunResult{}, TraceSink::RunOptions{}),
               std::invalid_argument);
}

TEST(ObsTrace, SimulatedRunTraceIsDeterministic) {
  const workload::Application app(
      "det", 0, 64, {workload::TimeLaw{workload::TimeLawKind::kNormal, 64.0, 0.1}});
  const sysmodel::AvailabilitySpec dedicated("dedicated", {pmf::Pmf::delta(1.0)});
  sim::SimConfig config;
  config.iteration_cov = 0.0;
  config.availability_mode = sim::AvailabilityMode::kConstantMean;
  config.collect_trace = true;

  std::string dumps[2];
  std::size_t chunk_slices = 0;
  for (std::string& dump : dumps) {
    const sim::RunResult run =
        sim::simulate_loop(app, 0, 2, dedicated, dls::TechniqueId::kFAC, config, 7);
    TraceSink sink;
    TraceSink::RunOptions options;
    options.process_name = "det";
    sink.append_run(run, options);
    dump = sink.to_string();
    chunk_slices = 0;
    const Json doc = sink.to_json();
    const Json& events = doc.at("traceEvents");
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Json* cat = events.at(i).find("cat");
      if (cat != nullptr && cat->as_string() == "chunk") ++chunk_slices;
    }
    EXPECT_EQ(chunk_slices, run.total_chunks);
  }
  EXPECT_EQ(dumps[0], dumps[1]);  // same seed -> byte-identical trace
  EXPECT_GT(chunk_slices, 0u);
}

TEST(ObsTrace, WriteProducesParseableFile) {
  TraceSink sink;
  sink.append_run(tiny_run(), TraceSink::RunOptions{});
  const std::string path = ::testing::TempDir() + "cdsf_trace_test.json";
  sink.write(path);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) text.append(buffer, got);
  std::fclose(file);
  std::remove(path.c_str());
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed.at("traceEvents").size(), sink.event_count());
}

TEST(ObsTrace, WriteToAFullDiskThrows) {
  // A small trace sits in the stream buffer until the flush: the write
  // must fail there, not report success (/dev/full fails every write).
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "/dev/full is not writable here";
  TraceSink sink;
  sink.append_run(tiny_run(), TraceSink::RunOptions{});
  EXPECT_THROW(sink.write("/dev/full"), std::runtime_error);
}

}  // namespace
}  // namespace cdsf::obs
