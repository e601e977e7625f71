// Ablation: processor failure during execution. Sweeps the failure time of
// one worker and reports the median makespan per DLS technique —
// quantifying the "blast radius" of the non-preemptive chunk in flight and
// STATIC's stranded share.
//
// --mode degrade       : worker slows to --residual availability (default)
// --mode crash         : worker dies permanently; its chunk is re-dispatched
// --mode crash-recover : worker dies and rejoins after --recovery-delay
//
// Crash modes additionally report the fault accounting (chunks lost,
// iterations re-executed, wasted work) and a rho_2 section comparing the
// original Stage I mapping against a re-mapping computed on the REALIZED
// availability once the degradation exceeds the certified radius.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "cdsf/framework.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "ra/heuristics.hpp"
#include "sim/loop_executor.hpp"
#include "sim/master_worker.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/application.hpp"

namespace {

using namespace cdsf;

/// Original plan vs rho_2-triggered re-mapping when one processor type
/// degrades beyond the certificate: count deadline hits over many seeds.
/// When `json_out` is non-null the comparison is also recorded there.
void remap_comparison(std::uint64_t seed, std::size_t replications, obs::Json* json_out) {
  const sysmodel::Platform platform({{"fast", 8}, {"slow", 8}});
  const sysmodel::AvailabilitySpec reference(
      "reference", {pmf::Pmf::delta(1.0), pmf::Pmf::delta(0.9)});
  const sysmodel::AvailabilitySpec realized(
      "realized", {pmf::Pmf::delta(0.3), pmf::Pmf::delta(0.9)});
  workload::Batch batch;
  batch.add(workload::Application(
      "loop", 0, 4096,
      {workload::TimeLaw{workload::TimeLawKind::kNormal, 2400.0, 0.1},
       workload::TimeLaw{workload::TimeLawKind::kNormal, 3600.0, 0.1}}));
  const double deadline = 600.0;

  const core::Framework framework(batch, platform, reference, deadline);
  const ra::ExhaustiveOptimal heuristic;
  const core::StageOneResult stage_one = framework.run_stage_one(heuristic);
  core::Framework::ExecutionPlan plan;
  plan.allocation = stage_one.allocation;
  plan.phi1 = stage_one.phi1;
  plan.techniques.assign(batch.size(), dls::TechniqueId::kFAC);

  core::Framework::RemapPolicy policy;
  policy.rho2 = 0.10;
  const core::Framework::RemapDecision decision =
      framework.remap_on_availability(plan, realized, heuristic, policy);

  sim::SimConfig config;
  config.iteration_cov = 0.1;
  config.availability_mode = sim::AvailabilityMode::kConstantMean;
  std::size_t hits_original = 0;
  std::size_t hits_remapped = 0;
  for (std::size_t r = 0; r < replications; ++r) {
    if (framework.execute_plan(plan, realized, config, seed + r).system_makespan <= deadline) {
      ++hits_original;
    }
    if (framework.execute_plan(decision.plan, realized, config, seed + r).system_makespan <=
        deadline) {
      ++hits_remapped;
    }
  }

  std::printf("\nrho_2 re-mapping (realized decrease %.2f vs certificate %.2f -> %s)\n",
              decision.realized_decrease, policy.rho2,
              decision.triggered ? "TRIGGERED" : "kept");
  std::printf("  original plan : %s, phi_1(realized) = %.3f, deadline hits %zu/%zu\n",
              plan.allocation.to_string(platform).c_str(), decision.phi1_realized_before,
              hits_original, replications);
  std::printf("  remapped plan : %s, phi_1(realized) = %.3f, deadline hits %zu/%zu\n",
              decision.plan.allocation.to_string(platform).c_str(),
              decision.phi1_realized_after, hits_remapped, replications);

  if (json_out != nullptr) {
    obs::Json remap = obs::Json::object();
    remap.set("realized_decrease", decision.realized_decrease);
    remap.set("rho2", policy.rho2);
    remap.set("triggered", decision.triggered);
    remap.set("phi1_realized_before", decision.phi1_realized_before);
    remap.set("phi1_realized_after", decision.phi1_realized_after);
    remap.set("hits_original", hits_original);
    remap.set("hits_remapped", hits_remapped);
    remap.set("replications", replications);
    json_out->set("remap_comparison", std::move(remap));
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("DLS behaviour under an injected processor failure.");
  cli.add_int("replications", 51, "replications per cell");
  cli.add_int("seed", 3, "master random seed");
  cli.add_string("mode", "degrade", "failure kind: degrade|crash|crash-recover");
  cli.add_double("residual", 0.02, "availability of the failed worker (degrade mode)");
  cli.add_double("recovery-delay", 300.0, "downtime before rejoining (crash-recover mode)");
  cli.add_string("json", "", "also write a machine-readable JSON report to this file");
  cli.add_flag("speculate",
               "add a three-way {none, re-dispatch, re-dispatch+speculation} comparison "
               "for a crash-free degraded worker under identical seeds");
  cli.add_double("quantile", 2.0, "straggler threshold in sigmas (with --speculate)");
  cli.add_double("speculate-time", 500.0,
                 "when the degraded worker slows down (with --speculate)");
  cli.add_flag("channel",
               "add a three-arm {reliable, lossy without retransmission, lossy+retransmit+"
               "checkpoint+master-restart} unreliable-channel comparison on the MPI "
               "executor under identical seeds");
  cli.add_double("channel-drop", 0.05, "per-message drop probability (with --channel)");
  cli.add_double("channel-dup", 0.05, "per-message duplication probability (with --channel)");
  cli.add_double("channel-reorder", 0.1, "per-message reorder probability (with --channel)");
  cli.add_double("master-crash-time", 400.0,
                 "master crash instant in the hardened arm (with --channel)");
  cli.add_flag("fail-slow",
               "add a gray-failure ablation arm set {naive, speculation-only, "
               "quarantine+integrity} with two fail-slow (degraded-but-alive) workers "
               "on the MPI executor under identical seeds");
  cli.add_double("fail-slow-residual", 0.1,
                 "residual availability of the fail-slow workers (0.1 = 10x slowdown)");
  cli.add_flag("corrupt",
               "add per-message payload corruption to the gray-failure arms (the naive "
               "arm cannot retransmit, so checksum-discarded messages are lost for good)");
  cli.add_double("corrupt-rate", 0.01,
                 "per-message corruption probability, both directions (with --corrupt)");
  cli.add_double("gray-deadline", 2500.0,
                 "deadline for the gray-failure hit-rate columns (healthy ideal ~1000)");
  if (!cli.parse(argc, argv)) return 0;
  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) obs::MetricsRegistry::global().set_enabled(true);

  // 8000 uniform iterations on 8 dedicated workers; worker 2 fails.
  const workload::Application app(
      "steady", 0, 8000, {workload::TimeLaw{workload::TimeLawKind::kNormal, 8000.0, 0.1}});
  const sysmodel::AvailabilitySpec full("dedicated", {pmf::Pmf::delta(1.0)});
  const auto replications = static_cast<std::size_t>(cli.get_int("replications"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double residual = cli.get_double("residual");
  const double recovery_delay = cli.get_double("recovery-delay");
  const std::string mode = cli.get_string("mode");
  sim::SimConfig::FailureKind kind = sim::SimConfig::FailureKind::kDegrade;
  if (mode == "crash") {
    kind = sim::SimConfig::FailureKind::kCrash;
  } else if (mode == "crash-recover") {
    kind = sim::SimConfig::FailureKind::kCrashRecover;
  } else if (mode != "degrade") {
    std::fprintf(stderr, "unknown --mode '%s' (degrade|crash|crash-recover)\n", mode.c_str());
    return 1;
  }

  const std::vector<double> failure_times = {100.0, 300.0, 600.0, 900.0};
  const std::vector<dls::TechniqueId> techniques = {
      dls::TechniqueId::kStatic, dls::TechniqueId::kSS,  dls::TechniqueId::kGSS,
      dls::TechniqueId::kTSS,    dls::TechniqueId::kFAC, dls::TechniqueId::kAWF_B,
      dls::TechniqueId::kAF};

  util::Table table;
  std::vector<std::string> headers = {"technique", "no failure"};
  for (double t : failure_times) headers.push_back("fail@" + util::format_fixed(t, 0));
  table.set_headers(headers);
  table.set_alignment({util::Align::kLeft});
  if (kind == sim::SimConfig::FailureKind::kDegrade) {
    table.set_title("Median makespan, worker 2 degrading to " +
                    util::format_percent(residual, 0) +
                    " availability at the given time (healthy ideal ~1000)");
  } else if (kind == sim::SimConfig::FailureKind::kCrash) {
    table.set_title(
        "Median makespan, worker 2 crashing permanently at the given time; "
        "its in-flight chunk is re-dispatched to the survivors");
  } else {
    table.set_title("Median makespan, worker 2 down for " +
                    util::format_fixed(recovery_delay, 0) +
                    " time units from the given time, then rejoining");
  }

  util::Table faults;
  faults.set_headers(headers);
  faults.set_alignment({util::Align::kLeft});
  faults.set_title(
      "Fault accounting per cell: chunks lost / iterations re-executed / wasted work "
      "(totals over all replications)");

  obs::Json json_techniques = obs::Json::array();
  for (dls::TechniqueId id : techniques) {
    std::vector<std::string> row = {dls::technique_name(id)};
    std::vector<std::string> fault_row = {dls::technique_name(id)};
    obs::Json json_entry = obs::Json::object();
    json_entry.set("technique", dls::technique_name(id));
    sim::SimConfig healthy;
    healthy.iteration_cov = 0.1;
    healthy.availability_mode = sim::AvailabilityMode::kConstantMean;
    const sim::ReplicationSummary baseline =
        sim::simulate_replicated(app, 0, 8, full, id, healthy, seed, replications, 1e18);
    row.push_back(util::format_fixed(baseline.median_makespan, 0));
    fault_row.push_back("-");
    json_entry.set("no_failure", obs::to_json(baseline, std::numeric_limits<double>::infinity()));
    obs::Json json_cells = obs::Json::array();
    for (double t : failure_times) {
      sim::SimConfig config = healthy;
      sim::SimConfig::Failure failure;
      failure.worker = 2;
      failure.time = t;
      failure.residual_availability = residual;
      failure.kind = kind;
      if (kind == sim::SimConfig::FailureKind::kCrashRecover) {
        failure.recovery_time = t + recovery_delay;
      }
      config.failures.push_back(failure);
      const sim::ReplicationSummary summary =
          sim::simulate_replicated(app, 0, 8, full, id, config, seed, replications, 1e18);
      row.push_back(util::format_fixed(summary.median_makespan, 0));
      fault_row.push_back(std::to_string(summary.faults_total.chunks_lost) + "/" +
                          std::to_string(summary.faults_total.iterations_reexecuted) + "/" +
                          util::format_fixed(summary.faults_total.wasted_work, 0));
      obs::Json cell = obs::to_json(summary, std::numeric_limits<double>::infinity());
      cell.set("failure_time", t);
      json_cells.push_back(std::move(cell));
    }
    json_entry.set("failures", std::move(json_cells));
    json_techniques.push_back(std::move(json_entry));
    table.add_row(row);
    faults.add_row(fault_row);
  }
  std::puts(table.render().c_str());
  obs::Json report = obs::Json::object();

  // Three-way mitigation ablation: the same crash-free degradation under the
  // same seeds, with no mitigation, with the crash/re-dispatch machinery
  // armed, and with speculative backups on top. Nothing crashes, so the
  // first two arms coincide by construction — that IS the point: re-dispatch
  // cannot help against a degraded-but-alive worker, only speculation can.
  obs::Json json_speculation = obs::Json::array();
  if (cli.get_flag("speculate")) {
    const double quantile = cli.get_double("quantile");
    const double spec_time = cli.get_double("speculate-time");
    util::Table spec_table;
    spec_table.set_headers({"technique", "none", "re-dispatch", "re-disp+spec",
                            "flagged", "backups won/canc"});
    spec_table.set_alignment({util::Align::kLeft});
    spec_table.set_title(
        "Mean makespan, worker 2 degrading to " + util::format_percent(residual, 0) +
        " availability at t=" + util::format_fixed(spec_time, 0) +
        " (crash-free), identical seeds per arm; straggler quantile " +
        util::format_fixed(quantile, 1));
    for (dls::TechniqueId id : techniques) {
      sim::SimConfig none;
      none.iteration_cov = 0.1;
      none.availability_mode = sim::AvailabilityMode::kConstantMean;
      sim::SimConfig::Failure degrade;
      degrade.worker = 2;
      degrade.time = spec_time;
      degrade.residual_availability = residual;
      degrade.kind = sim::SimConfig::FailureKind::kDegrade;
      none.failures.push_back(degrade);
      sim::SimConfig redispatch = none;
      redispatch.fault_detection.enabled = true;
      sim::SimConfig speculate = redispatch;
      speculate.speculation.enabled = true;
      speculate.speculation.quantile = quantile;
      const sim::ReplicationSummary arm_none =
          sim::simulate_replicated(app, 0, 8, full, id, none, seed, replications, 1e18);
      const sim::ReplicationSummary arm_redispatch =
          sim::simulate_replicated(app, 0, 8, full, id, redispatch, seed, replications, 1e18);
      const sim::ReplicationSummary arm_speculate =
          sim::simulate_replicated(app, 0, 8, full, id, speculate, seed, replications, 1e18);
      const sim::SpeculationStats& spec = arm_speculate.speculation_total;
      spec_table.add_row(
          {dls::technique_name(id), util::format_fixed(arm_none.mean_makespan, 1),
           util::format_fixed(arm_redispatch.mean_makespan, 1),
           util::format_fixed(arm_speculate.mean_makespan, 1),
           std::to_string(spec.stragglers_flagged),
           std::to_string(spec.backups_won) + "/" + std::to_string(spec.backups_cancelled)});
      obs::Json entry = obs::Json::object();
      entry.set("technique", dls::technique_name(id));
      entry.set("none", obs::to_json(arm_none, std::numeric_limits<double>::infinity()));
      entry.set("redispatch",
                obs::to_json(arm_redispatch, std::numeric_limits<double>::infinity()));
      entry.set("speculation",
                obs::to_json(arm_speculate, std::numeric_limits<double>::infinity()));
      json_speculation.push_back(std::move(entry));
    }
    std::puts(spec_table.render().c_str());
    std::puts("Reading guide: nothing crashes here, so 'none' and 're-dispatch' coincide by");
    std::puts("design — the degraded worker never stops reporting and the crash detector has");
    std::puts("nothing to reclaim. Speculation is the only mitigation with traction: the");
    std::puts("straggling chunk gets a backup copy on an idle worker and the first finisher");
    std::puts("wins, cutting the mean makespan for every dynamic technique.");
  }
  // Channel-fault ablation: the same loop on the message-passing executor
  // under identical seeds, with a reliable channel, a lossy channel whose
  // only recovery is the failure detector (max_retransmits = 0 — workers
  // whose messages vanish are attrited one by one, so runs can strand
  // outright), and the fully hardened protocol (retransmission + dedup +
  // checkpointing) that additionally survives a mid-run master crash.
  obs::Json json_channel = obs::Json::array();
  if (cli.get_flag("channel")) {
    const double drop = cli.get_double("channel-drop");
    const double dup = cli.get_double("channel-dup");
    const double reorder = cli.get_double("channel-reorder");
    const double crash_time = cli.get_double("master-crash-time");
    const sim::MessageModel messages;
    util::Table chan_table;
    chan_table.set_headers({"technique", "reliable", "lossy no-rexmit", "hardened",
                            "drops", "rexmit/dedup", "restarts"});
    chan_table.set_alignment({util::Align::kLeft});
    chan_table.set_title(
        "Median makespan on the MPI executor, identical seeds per arm; drop " +
        util::format_percent(drop, 0) + ", duplicate " + util::format_percent(dup, 0) +
        ", reorder " + util::format_percent(reorder, 0) +
        " per message both directions; hardened arm adds a master crash at t=" +
        util::format_fixed(crash_time, 0));
    for (dls::TechniqueId id : techniques) {
      sim::SimConfig reliable;
      reliable.iteration_cov = 0.1;
      reliable.availability_mode = sim::AvailabilityMode::kConstantMean;
      sim::SimConfig lossy = reliable;
      lossy.channel.drop_to_worker = lossy.channel.drop_to_master = drop;
      lossy.channel.duplicate_to_worker = lossy.channel.duplicate_to_master = dup;
      lossy.channel.reorder_to_worker = lossy.channel.reorder_to_master = reorder;
      lossy.channel.max_retransmits = 0;
      sim::SimConfig hardened = lossy;
      hardened.channel.max_retransmits = 8;
      hardened.checkpoint.enabled = true;
      hardened.checkpoint.interval = 100.0;
      sim::SimConfig::Failure master;
      master.kind = sim::SimConfig::FailureKind::kMasterCrashRestart;
      master.time = crash_time;
      master.recovery_time = crash_time + 80.0;
      hardened.failures.push_back(master);

      const sim::ReplicationSummary arm_reliable = sim::simulate_replicated_mpi(
          app, 0, 8, full, id, reliable, messages, seed, replications, 1e18);
      std::string lossy_cell = "stranded";
      obs::Json lossy_json = obs::Json::object();
      try {
        const sim::ReplicationSummary arm_lossy = sim::simulate_replicated_mpi(
            app, 0, 8, full, id, lossy, messages, seed, replications, 1e18);
        lossy_cell = util::format_fixed(arm_lossy.median_makespan, 0);
        lossy_json = obs::to_json(arm_lossy, std::numeric_limits<double>::infinity());
      } catch (const std::runtime_error& error) {
        // Without retransmission a dropped message silently retires its
        // worker; enough losses strand the loop — that failure IS the
        // ablation's data point.
        lossy_json.set("stranded", true);
        lossy_json.set("error", std::string(error.what()));
      }
      const sim::ReplicationSummary arm_hardened = sim::simulate_replicated_mpi(
          app, 0, 8, full, id, hardened, messages, seed, replications, 1e18);
      const sim::ChannelStats& chan = arm_hardened.channel_total;
      chan_table.add_row(
          {dls::technique_name(id), util::format_fixed(arm_reliable.median_makespan, 0),
           lossy_cell, util::format_fixed(arm_hardened.median_makespan, 0),
           std::to_string(chan.drops),
           std::to_string(chan.retransmits) + "/" + std::to_string(chan.dedup_hits),
           std::to_string(arm_hardened.checkpoint_total.master_restarts)});
      obs::Json entry = obs::Json::object();
      entry.set("technique", dls::technique_name(id));
      entry.set("reliable", obs::to_json(arm_reliable, std::numeric_limits<double>::infinity()));
      entry.set("lossy", std::move(lossy_json));
      entry.set("hardened",
                obs::to_json(arm_hardened, std::numeric_limits<double>::infinity()));
      json_channel.push_back(std::move(entry));
    }
    std::puts(chan_table.render().c_str());
    std::puts("Reading guide: the reliable and hardened arms should agree to within the");
    std::puts("channel-induced latency noise — retransmission + dedup + checkpointing turn");
    std::puts("a lossy substrate (and a mid-run master crash) back into an at-least-once");
    std::puts("channel with exactly-once record()ing. The no-retransmission arm leans on");
    std::puts("the failure detector alone: every lost message permanently retires a worker,");
    std::puts("so its makespan balloons or the run strands outright.");
  }
  // Gray-failure ablation: fail-slow workers never crash and corrupted
  // payloads are well-formed, so neither the crash detector nor the
  // checksum alone saves the run. Three arms under identical seeds on the
  // MPI executor: naive (no mitigation; with --corrupt its channel cannot
  // retransmit, so every checksum-discarded message permanently retires
  // progress), speculation-only (hardened channel + straggler backups),
  // and quarantine+integrity (speculation plus the fail-slow EWMA
  // quarantine and audit-based result validation).
  obs::Json json_gray = obs::Json::array();
  const bool gray_fail_slow = cli.get_flag("fail-slow");
  const bool gray_corrupt = cli.get_flag("corrupt");
  if (gray_fail_slow || gray_corrupt) {
    const double gray_residual = cli.get_double("fail-slow-residual");
    const double corrupt_rate = cli.get_double("corrupt-rate");
    const double gray_deadline = cli.get_double("gray-deadline");
    const sim::MessageModel messages;
    util::Table gray_table;
    gray_table.set_headers({"technique", "naive", "spec-only", "quar+integrity",
                            "hits n/s/q", "quarantines", "audits (bad)", "corrupted"});
    gray_table.set_alignment({util::Align::kLeft});
    std::string title = "Median makespan on the MPI executor, identical seeds per arm";
    if (gray_fail_slow) {
      title += "; workers 2 and 5 fail-slow to " + util::format_percent(gray_residual, 0) +
               " availability at t=200/400";
    }
    if (gray_corrupt) {
      title += "; " + util::format_percent(corrupt_rate, 1) +
               " payload corruption per message both directions";
    }
    title += "; deadline " + util::format_fixed(gray_deadline, 0);
    gray_table.set_title(title);
    for (dls::TechniqueId id : techniques) {
      sim::SimConfig naive;
      naive.iteration_cov = 0.1;
      naive.availability_mode = sim::AvailabilityMode::kConstantMean;
      if (gray_fail_slow) {
        for (const auto& [worker, time] :
             {std::pair<std::size_t, double>{2, 200.0}, {5, 400.0}}) {
          sim::SimConfig::Failure slow;
          slow.worker = worker;
          slow.time = time;
          slow.residual_availability = gray_residual;
          slow.kind = sim::SimConfig::FailureKind::kDegrade;
          naive.failures.push_back(slow);
        }
      }
      if (gray_corrupt) {
        naive.channel.corrupt_to_worker = naive.channel.corrupt_to_master = corrupt_rate;
        naive.channel.max_retransmits = 0;
      }
      sim::SimConfig spec_only = naive;
      spec_only.channel.max_retransmits = 8;
      spec_only.speculation.enabled = true;
      spec_only.speculation.quantile = cli.get_double("quantile");
      sim::SimConfig quar = spec_only;
      quar.quarantine.enabled = true;
      quar.quarantine.audit_rate = 0.1;

      std::string naive_cell = "stranded";
      std::string naive_hits = "-";
      obs::Json naive_json = obs::Json::object();
      try {
        const sim::ReplicationSummary arm_naive = sim::simulate_replicated_mpi(
            app, 0, 8, full, id, naive, messages, seed, replications, gray_deadline);
        naive_cell = util::format_fixed(arm_naive.median_makespan, 0);
        naive_hits = util::format_percent(arm_naive.deadline_hit_rate, 0);
        naive_json = obs::to_json(arm_naive, gray_deadline);
      } catch (const std::runtime_error& error) {
        // With --corrupt the naive arm discards corrupted copies but can
        // never retransmit them, so workers are attrited until the loop
        // strands — that failure IS the data point.
        naive_json.set("stranded", true);
        naive_json.set("error", std::string(error.what()));
      }
      const sim::ReplicationSummary arm_spec = sim::simulate_replicated_mpi(
          app, 0, 8, full, id, spec_only, messages, seed, replications, gray_deadline);
      const sim::ReplicationSummary arm_quar = sim::simulate_replicated_mpi(
          app, 0, 8, full, id, quar, messages, seed, replications, gray_deadline);
      const sim::QuarantineStats& q = arm_quar.quarantine_total;
      gray_table.add_row(
          {dls::technique_name(id), naive_cell,
           util::format_fixed(arm_spec.median_makespan, 0),
           util::format_fixed(arm_quar.median_makespan, 0),
           naive_hits + "/" + util::format_percent(arm_spec.deadline_hit_rate, 0) + "/" +
               util::format_percent(arm_quar.deadline_hit_rate, 0),
           std::to_string(q.quarantines),
           std::to_string(q.audits_launched) + " (" + std::to_string(q.audit_mismatches) +
               ")",
           std::to_string(arm_quar.channel_total.corrupted)});
      obs::Json entry = obs::Json::object();
      entry.set("technique", dls::technique_name(id));
      entry.set("naive", std::move(naive_json));
      entry.set("speculation", obs::to_json(arm_spec, gray_deadline));
      entry.set("quarantine_integrity", obs::to_json(arm_quar, gray_deadline));
      json_gray.push_back(std::move(entry));
    }
    std::puts(gray_table.render().c_str());
    std::puts("Reading guide: gray failures are the cases the binary fault model misses —");
    std::puts("the fail-slow workers keep accepting work at a tenth of their promised rate,");
    std::puts("and corrupted payloads parse fine. The naive arm strands (corruption with no");
    std::puts("retransmission) or blows through the deadline; speculation rescues in-flight");
    std::puts("chunks but keeps re-feeding the slow workers; quarantine stops feeding them");
    std::puts("after a few observations, and the audit layer is what catches silently wrong");
    std::puts("results (checksums only cover the wire, not a lying worker).");
  }
  report.set("schema", "cdsf.ablation_report/1");
  report.set("bench", "failure_ablation");
  report.set("mode", mode);
  report.set("replications", replications);
  report.set("seed", static_cast<std::int64_t>(seed));
  if (kind == sim::SimConfig::FailureKind::kDegrade) {
    report.set("residual", residual);
    std::puts("Reading guide: STATIC strands the dead worker's whole remaining share (worst");
    std::puts("for early failures); dynamic techniques lose only the chunk in flight, so the");
    std::puts("penalty tracks the CURRENT chunk size — small for SS, large for GSS's first");
    std::puts("chunk, shrinking over time for the factoring family.");
  } else {
    if (kind == sim::SimConfig::FailureKind::kCrashRecover) {
      report.set("recovery_delay", recovery_delay);
    }
    std::puts(faults.render().c_str());
    std::puts("Reading guide: a crash loses at most the chunk in flight — the re-executed");
    std::puts("iterations track the technique's chunk size at the failure time, and the");
    std::puts("wasted work is the partial progress on the lost chunk that must be redone.");
    remap_comparison(seed, replications, json_path.empty() ? nullptr : &report);
  }
  if (!json_path.empty()) {
    report.set("techniques", std::move(json_techniques));
    if (cli.get_flag("speculate")) {
      report.set("_format",
                 "Speculation ablation, documented by this key and regenerated by "
                 "'_command'. Each 'speculation_ablation' entry holds the replication "
                 "summary for the three mitigation arms {none, redispatch, speculation} under "
                 "identical seeds; 'speculation.mean_makespan' must be strictly below "
                 "'redispatch.mean_makespan' for every dynamic technique "
                 "(docs/fault_tolerance.md).");
      report.set("_command",
                 "build/bench/bench_failure_ablation --speculate --residual 0.2 "
                 "--replications 51 --json BENCH_speculation.json");
      report.set("quantile", cli.get_double("quantile"));
      report.set("speculate_time", cli.get_double("speculate-time"));
      report.set("speculation_ablation", std::move(json_speculation));
    }
    if (cli.get_flag("channel")) {
      report.set("_channel_format",
                 "Each 'channel_ablation' entry holds the replication summary for the "
                 "three protocol arms {reliable, lossy, hardened} on the MPI executor "
                 "under identical seeds. 'lossy' (max_retransmits = 0) may record "
                 "stranded = true instead of a summary — the unhardened protocol can "
                 "fail outright; 'hardened.median_makespan' must stay finite and close "
                 "to 'reliable.median_makespan' (docs/fault_tolerance.md).");
      report.set("_channel_command",
                 "build/bench/bench_failure_ablation --channel --replications 21 "
                 "--json BENCH_channel.json");
      report.set("channel_drop", cli.get_double("channel-drop"));
      report.set("channel_dup", cli.get_double("channel-dup"));
      report.set("channel_reorder", cli.get_double("channel-reorder"));
      report.set("master_crash_time", cli.get_double("master-crash-time"));
      report.set("channel_ablation", std::move(json_channel));
    }
    if (gray_fail_slow || gray_corrupt) {
      report.set("_gray_format",
                 "Each 'gray_ablation' entry holds the replication summary for the three "
                 "gray-failure arms {naive, speculation, quarantine_integrity} on the MPI "
                 "executor under identical seeds. 'naive' may record stranded = true — "
                 "with --corrupt it cannot retransmit checksum-discarded messages; "
                 "otherwise compare 'deadline_hit_rate' across the arms: "
                 "'quarantine_integrity' must complete within the deadline where the "
                 "naive arm strands or misses it (docs/fault_tolerance.md).");
      report.set("_gray_command",
                 "build/bench/bench_failure_ablation --fail-slow --corrupt "
                 "--replications 21 --json BENCH_gray_failure.json");
      report.set("fail_slow", cli.get_flag("fail-slow"));
      report.set("fail_slow_residual", cli.get_double("fail-slow-residual"));
      report.set("corrupt", cli.get_flag("corrupt"));
      report.set("corrupt_rate", cli.get_double("corrupt-rate"));
      report.set("gray_deadline", cli.get_double("gray-deadline"));
      report.set("gray_ablation", std::move(json_gray));
    }
    if (obs::MetricsRegistry::global().enabled()) report.set("metrics", obs::metrics_json());
    obs::write_json(report, json_path);
    std::printf("report written to %s\n", json_path.c_str());
  }
  return 0;
}
