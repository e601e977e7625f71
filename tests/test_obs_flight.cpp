// Flight recorder, postmortem sink, and OpenMetrics exposition.
//
// The load-bearing guarantees:
//   * recording is structurally inert — a default-config run is
//     byte-identical with the recorder on or off;
//   * postmortem dumps are deterministic — repeated seeded runs and
//     different replication thread counts produce byte-identical
//     cdsf.flight_record/1 documents;
//   * anomalous runs (deadline miss, quarantine trip) auto-dump a
//     parseable postmortem through the armed FlightSink;
//   * to_openmetrics renders an exact, golden-stable text exposition with
//     bucket-interpolated quantile companions.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cdsf/paper_example.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"
#include "obs/report.hpp"
#include "sim/loop_executor.hpp"
#include "test_support.hpp"

namespace cdsf {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kIterations = 4000;

workload::Application steady_app() {
  return test::simple_app("steady", 0, kIterations, {4000.0});
}

/// Fresh scratch directory under the system temp root; removed and
/// recreated so stale dumps from a previous run never leak in.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("cdsf_flight_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every dump in `dir`, sorted by content.
std::vector<std::string> sorted_dump_contents(const fs::path& dir) {
  std::vector<std::string> contents;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    contents.push_back(slurp(entry.path()));
  }
  std::sort(contents.begin(), contents.end());
  return contents;
}

/// RAII arming so a failing assertion cannot leave the process-global
/// sink armed for later tests.
struct ArmedSink {
  explicit ArmedSink(const fs::path& prefix, std::size_t max_dumps = 64) {
    obs::FlightSink::global().arm(prefix.string(), max_dumps);
  }
  ~ArmedSink() { obs::FlightSink::global().disarm(); }
};

// ------------------------------------------------------------- recorder --

TEST(FlightRecorder, MergesTracksInTimeOrderAndCountsDrops) {
  obs::FlightRecorder recorder(2, 2, true);
  recorder.record(obs::FlightEventKind::kChunkDispatched, 1.0, 0, 0, 10);
  recorder.record(obs::FlightEventKind::kChunkDispatched, 0.5, 1, 10, 10);
  recorder.record(obs::FlightEventKind::kChunkAccepted, 2.0, 0, 0, 10);
  recorder.record(obs::FlightEventKind::kChunkLost, 3.0, 0, 0, 10);  // evicts t=1.0
  recorder.record(obs::FlightEventKind::kCheckpoint, 4.0, obs::kFlightMasterTrack, 1, 2);
  const obs::FlightRecord record = recorder.finish();

  EXPECT_TRUE(record.enabled);
  ASSERT_EQ(record.workers.size(), 3u);  // 2 workers + master track
  EXPECT_EQ(record.total_recorded, 5u);
  EXPECT_EQ(record.total_dropped, 1u);
  EXPECT_EQ(record.workers[0].accepted, 1u);
  EXPECT_EQ(record.workers[0].lost, 1u);
  EXPECT_EQ(record.workers[2].recorded, 1u);  // master track

  ASSERT_EQ(record.events.size(), 4u);  // worker 0 kept 2 of 3
  EXPECT_DOUBLE_EQ(record.events.front().time, 0.5);
  EXPECT_DOUBLE_EQ(record.events.back().time, 4.0);
  EXPECT_TRUE(std::is_sorted(record.events.begin(), record.events.end(),
                             [](const obs::FlightEvent& a, const obs::FlightEvent& b) {
                               return a.time < b.time;
                             }));
}

TEST(FlightRecorder, DisabledRecorderIsANoOp) {
  obs::FlightRecorder recorder(2, 4, false);
  recorder.record(obs::FlightEventKind::kChunkDispatched, 1.0, 0);
  const obs::FlightRecord record = recorder.finish();
  EXPECT_FALSE(record.enabled);
  EXPECT_TRUE(record.events.empty());
  EXPECT_EQ(record.total_recorded, 0u);
}

TEST(FlightRecorder, RecordJsonCarriesSchemaAnomalyAndMasterTrack) {
  obs::FlightRecorder recorder(1, 4, true);
  recorder.record(obs::FlightEventKind::kWorkerCrashed, 2.0, 0);
  recorder.record(obs::FlightEventKind::kWalAppend, 3.0, obs::kFlightMasterTrack, 7, 16);
  const obs::Json doc = obs::flight_record_to_json(
      recorder.finish(), obs::FlightAnomaly{"deadline_miss", "makespan 9 > deadline 5", 9.0});

  EXPECT_EQ(doc.at("schema").as_string(), "cdsf.flight_record/1");
  EXPECT_EQ(doc.at("anomaly").at("kind").as_string(), "deadline_miss");
  EXPECT_DOUBLE_EQ(doc.at("anomaly").at("time").as_double(), 9.0);
  ASSERT_EQ(doc.at("workers").size(), 2u);
  EXPECT_EQ(doc.at("workers").at(0).at("state").as_string(), "crashed");
  EXPECT_EQ(doc.at("workers").at(1).at("worker").as_string(), "master");
  ASSERT_EQ(doc.at("events").size(), 2u);
  EXPECT_EQ(doc.at("events").at(0).at("kind").as_string(), "worker_crashed");
  EXPECT_EQ(doc.at("events").at(1).at("worker").as_string(), "master");
  EXPECT_EQ(doc.at("events").at(1).at("a").as_int(), 7);
}

// ------------------------------------------------------------ inertness --

TEST(FlightRecorder, RecorderIsStructurallyInert) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig with_flight;
  with_flight.collect_trace = true;
  sim::SimConfig without_flight = with_flight;
  without_flight.flight.track_capacity = 0;

  const sim::RunResult on =
      sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, with_flight, 5);
  const sim::RunResult off =
      sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, without_flight, 5);
  // The run report covers makespan, per-worker stats, lifecycle events,
  // and the chunk trace — byte-identical serialization means the recorder
  // changed nothing observable.
  EXPECT_EQ(obs::make_run_report("inert", on, 0.0).dump(),
            obs::make_run_report("inert", off, 0.0).dump());
  EXPECT_TRUE(on.flight.enabled);
  EXPECT_GT(on.flight.total_recorded, 0u);
  EXPECT_FALSE(off.flight.enabled);
}

// ----------------------------------------------------------- postmortems --

TEST(FlightPostmortem, DeadlineMissDumpsParseableRecord) {
  const fs::path dir = scratch_dir("deadline");
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config;
  config.flight.deadline = 1.0;  // everything misses

  sim::RunResult run;
  {
    ArmedSink sink(dir / "pm");
    run = sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, config, 3);
  }
  ASSERT_GT(run.makespan, 1.0);
  const fs::path dump = dir / "pm_0.json";
  ASSERT_TRUE(fs::exists(dump));

  const obs::Json doc = obs::Json::parse(slurp(dump));
  EXPECT_EQ(doc.at("schema").as_string(), "cdsf.flight_record/1");
  EXPECT_EQ(doc.at("anomaly").at("kind").as_string(), "deadline_miss");
  EXPECT_DOUBLE_EQ(doc.at("anomaly").at("time").as_double(), run.makespan);
  EXPECT_EQ(doc.at("workers").size(), 5u);  // 4 workers + master
  EXPECT_GT(doc.at("events").size(), 0u);
}

TEST(FlightPostmortem, QuarantineTripDumpsParseableRecord) {
  const fs::path dir = scratch_dir("quarantine");
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config;
  config.iteration_cov = 0.1;
  config.availability_mode = sim::AvailabilityMode::kConstantMean;
  sim::SimConfig::Failure failure;
  failure.worker = 2;
  failure.time = 200.0;
  failure.kind = sim::SimConfig::FailureKind::kDegrade;
  failure.residual_availability = 0.1;
  config.failures.push_back(failure);
  config.quarantine.enabled = true;
  config.quarantine.ewma_alpha = 0.9;
  config.quarantine.min_observations = 1;
  config.quarantine.slowdown_threshold = 3.0;

  sim::RunResult run;
  {
    ArmedSink sink(dir / "pm");
    run = sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, config, 11);
  }
  ASSERT_GE(run.quarantine.quarantines, 1u);
  const fs::path dump = dir / "pm_0.json";
  ASSERT_TRUE(fs::exists(dump));

  const obs::Json doc = obs::Json::parse(slurp(dump));
  EXPECT_EQ(doc.at("schema").as_string(), "cdsf.flight_record/1");
  EXPECT_EQ(doc.at("anomaly").at("kind").as_string(), "quarantine_trip");
  bool saw_quarantine_event = false;
  for (const obs::Json& event : doc.at("events").items()) {
    if (event.at("kind").as_string() == "worker_quarantined") saw_quarantine_event = true;
  }
  EXPECT_TRUE(saw_quarantine_event);
}

TEST(FlightPostmortem, DumpsAreByteIdenticalAcrossRunsAndThreadCounts) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config;  // flight.deadline filled from the deadline argument

  auto dump_replicated = [&](const std::string& name, std::size_t threads) {
    const fs::path dir = scratch_dir(name);
    ArmedSink sink(dir / "pm");
    (void)sim::simulate_replicated(app, 0, 4, full, dls::TechniqueId::kFAC, config, 21, 5,
                                   /*deadline=*/1.0, threads);
    return sorted_dump_contents(dir);
  };

  const std::vector<std::string> serial = dump_replicated("serial", 1);
  const std::vector<std::string> serial_again = dump_replicated("serial_again", 1);
  const std::vector<std::string> threaded = dump_replicated("threaded", 4);
  ASSERT_EQ(serial.size(), 5u);  // every replication misses deadline 1.0
  EXPECT_EQ(serial, serial_again);
  EXPECT_EQ(serial, threaded);
}

TEST(FlightPostmortem, ReplicatedDumpsFollowReplicationOrder) {
  // More runs miss the deadline than the budget admits, so which four get
  // written must be decided by replication order, not by finishing order.
  const auto example = core::make_paper_example();
  auto dump_replicated = [&](const std::string& name, std::size_t threads) {
    const fs::path dir = scratch_dir(name);
    {
      ArmedSink sink(dir / "pm", 4);
      (void)sim::simulate_replicated(example.batch.at(2), 1, 8, example.cases[3],
                                     dls::TechniqueId::kAF, sim::SimConfig{}, 77, 40,
                                     example.deadline, threads);
    }
    std::map<std::string, std::string> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      files[entry.path().filename().string()] = slurp(entry.path());
    }
    return files;
  };
  const std::map<std::string, std::string> serial = dump_replicated("order_serial", 1);
  ASSERT_EQ(serial.size(), 4u);
  for (int repeat = 0; repeat < 10; ++repeat) {
    EXPECT_EQ(serial, dump_replicated("order_threaded", 4)) << "repeat " << repeat;
  }
}

TEST(FlightPostmortem, UnarmedSinkWritesNothing) {
  const fs::path dir = scratch_dir("unarmed");
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config;
  config.flight.deadline = 1.0;
  (void)sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, config, 3);
  EXPECT_TRUE(fs::is_empty(dir));
}

// ----------------------------------------------------------- openmetrics --

TEST(OpenMetrics, GoldenExpositionRendersExactly) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["sim.runs"] = 3;
  snapshot.gauges["cdsf.stage1.phi1"] = 0.745;
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 2.0};
  h.counts = {1, 0, 0};  // single sample below the first bound
  h.count = 1;
  h.sum = 0.5;
  h.min = 0.5;
  h.max = 0.5;
  snapshot.histograms["sim.makespan"] = h;

  EXPECT_EQ(obs::to_openmetrics(snapshot),
            "# TYPE sim_runs counter\n"
            "sim_runs_total 3\n"
            "# TYPE cdsf_stage1_phi1 gauge\n"
            "cdsf_stage1_phi1 0.745\n"
            "# TYPE sim_makespan histogram\n"
            "sim_makespan_bucket{le=\"1\"} 1\n"
            "sim_makespan_bucket{le=\"2\"} 1\n"
            "sim_makespan_bucket{le=\"+Inf\"} 1\n"
            "sim_makespan_sum 0.5\n"
            "sim_makespan_count 1\n"
            "# TYPE sim_makespan_p50 gauge\n"
            "sim_makespan_p50 0.5\n"
            "# TYPE sim_makespan_p95 gauge\n"
            "sim_makespan_p95 0.5\n"
            "# TYPE sim_makespan_p99 gauge\n"
            "sim_makespan_p99 0.5\n"
            "# EOF\n");
}

TEST(OpenMetrics, SnapshotJsonRoundTripsThroughFromJson) {
  obs::MetricsRegistry registry;
  registry.add("sim.runs", 2);
  registry.set_gauge("cdsf.stage1.phi1", 0.26);
  registry.set_histogram_bounds("sim.makespan", {10.0, 100.0});
  registry.observe("sim.makespan", 5.0);
  registry.observe("sim.makespan", 50.0);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::MetricsSnapshot rebuilt = obs::snapshot_from_json(snapshot.to_json());
  EXPECT_EQ(obs::to_openmetrics(rebuilt), obs::to_openmetrics(snapshot));
}

TEST(OpenMetrics, SnapshotJsonCarriesInterpolatedQuantiles) {
  obs::MetricsRegistry registry;
  registry.set_histogram_bounds("h", {1.0, 2.0});
  for (int i = 0; i < 4; ++i) registry.observe("h", 1.25 + 0.1 * i);
  const obs::Json doc = registry.snapshot().to_json();
  const obs::Json& entry = doc.at("histograms").at("h");
  EXPECT_TRUE(entry.find("p50") != nullptr);
  EXPECT_TRUE(entry.find("p95") != nullptr);
  EXPECT_TRUE(entry.find("p99") != nullptr);
  EXPECT_DOUBLE_EQ(entry.at("p50").as_double(),
                   registry.snapshot().histograms.at("h").quantile(0.5));
}

// -------------------------------------------------------------- quantile --

TEST(HistogramQuantile, InterpolatesInsideTheTargetBucket) {
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 2.0};
  h.counts = {0, 4, 0};
  h.count = 4;
  h.sum = 6.0;
  h.min = 1.0;
  h.max = 2.0;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);    // rank 2 of 4, halfway in [1, 2]
  EXPECT_NEAR(h.quantile(0.95), 1.95, 1e-9);
  EXPECT_NEAR(h.quantile(0.99), 1.99, 1e-9);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.25);   // ceil-rank: first sample's slot
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(HistogramQuantile, OverflowBucketTopsOutAtObservedMax) {
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 2.0};
  h.counts = {0, 0, 2};
  h.count = 2;
  h.sum = 8.0;
  h.min = 3.0;
  h.max = 5.0;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);  // rank 1 of 2, halfway in [3, 5]
  EXPECT_NEAR(h.quantile(0.99), 4.98, 1e-9);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(HistogramQuantile, EmptyAndDegenerateHistograms) {
  obs::HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  obs::HistogramSnapshot point;
  point.bounds = {10.0};
  point.counts = {3, 0};
  point.count = 3;
  point.sum = 6.0;
  point.min = 2.0;
  point.max = 2.0;  // all mass on one value: every quantile is that value
  EXPECT_DOUBLE_EQ(point.quantile(0.01), 2.0);
  EXPECT_DOUBLE_EQ(point.quantile(0.99), 2.0);
}

}  // namespace
}  // namespace cdsf
