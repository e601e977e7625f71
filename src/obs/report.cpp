#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace cdsf::obs {

Json to_json(const stats::ConfidenceInterval& ci) {
  Json doc = Json::object();
  doc.set("lower", ci.lower);
  doc.set("upper", ci.upper);
  return doc;
}

Json to_json(const sim::FaultStats& faults) {
  Json doc = Json::object();
  doc.set("workers_crashed", faults.workers_crashed);
  doc.set("workers_recovered", faults.workers_recovered);
  doc.set("chunks_lost", faults.chunks_lost);
  doc.set("iterations_reexecuted", faults.iterations_reexecuted);
  doc.set("wasted_work", faults.wasted_work);
  doc.set("detection_latency_total", faults.detection_latency_total);
  doc.set("max_detection_latency", faults.max_detection_latency);
  doc.set("false_suspicions", faults.false_suspicions);
  return doc;
}

Json to_json(const sim::SpeculationStats& speculation) {
  Json doc = Json::object();
  doc.set("stragglers_flagged", speculation.stragglers_flagged);
  doc.set("backups_launched", speculation.backups_launched);
  doc.set("backups_won", speculation.backups_won);
  doc.set("backups_cancelled", speculation.backups_cancelled);
  doc.set("backups_lost", speculation.backups_lost);
  doc.set("primaries_cancelled", speculation.primaries_cancelled);
  doc.set("cancelled_work", speculation.cancelled_work);
  doc.set("risk_escalations", speculation.risk_escalations);
  return doc;
}

Json to_json(const sim::ChannelStats& channel) {
  Json doc = Json::object();
  doc.set("messages_sent", channel.messages_sent);
  doc.set("drops", channel.drops);
  doc.set("burst_drops", channel.burst_drops);
  doc.set("duplicates", channel.duplicates);
  doc.set("reorders", channel.reorders);
  doc.set("retransmits", channel.retransmits);
  doc.set("dedup_hits", channel.dedup_hits);
  doc.set("acks_sent", channel.acks_sent);
  doc.set("retransmits_abandoned", channel.retransmits_abandoned);
  // Payload-corruption counters only when the corruption axis fired, so
  // corruption-free channel blocks keep their pre-integrity shape.
  if (channel.corrupted > 0 || channel.corrupt_discarded > 0) {
    doc.set("corrupted", channel.corrupted);
    doc.set("corrupt_discarded", channel.corrupt_discarded);
  }
  return doc;
}

Json to_json(const sim::QuarantineStats& quarantine) {
  Json doc = Json::object();
  doc.set("fail_slow_trips", quarantine.fail_slow_trips);
  doc.set("audit_trips", quarantine.audit_trips);
  doc.set("quarantines", quarantine.quarantines);
  doc.set("reinstatements", quarantine.reinstatements);
  doc.set("probes_launched", quarantine.probes_launched);
  doc.set("probes_healthy", quarantine.probes_healthy);
  doc.set("quarantined_time", quarantine.quarantined_time);
  doc.set("audits_launched", quarantine.audits_launched);
  doc.set("audits_matched", quarantine.audits_matched);
  doc.set("audit_mismatches", quarantine.audit_mismatches);
  doc.set("audits_abandoned", quarantine.audits_abandoned);
  doc.set("corrupt_chunks_recorded", quarantine.corrupt_chunks_recorded);
  return doc;
}

Json to_json(const sim::CheckpointStats& checkpoint) {
  Json doc = Json::object();
  doc.set("wal_records", checkpoint.wal_records);
  doc.set("snapshots", checkpoint.snapshots);
  doc.set("master_restarts", checkpoint.master_restarts);
  doc.set("restart_ranges_redispatched", checkpoint.restart_ranges_redispatched);
  doc.set("restart_chunks_preserved", checkpoint.restart_chunks_preserved);
  doc.set("restart_completions_replayed", checkpoint.restart_completions_replayed);
  return doc;
}

namespace {

/// Speculation blocks appear only when there was speculation activity, so
/// non-speculative reports keep the pre-speculation shape.
bool speculation_active(const sim::SpeculationStats& s) {
  return s.stragglers_flagged > 0 || s.backups_launched > 0 || s.risk_escalations > 0;
}

/// Per-kind WAL record counts — a compact summary, not the full log (the
/// full log goes to SimConfig::MasterCheckpoint::json_path).
Json wal_summary(const std::vector<sim::WalRecord>& wal) {
  std::uint64_t assigns = 0, acks = 0, completes = 0, snapshots = 0, restarts = 0;
  for (const sim::WalRecord& record : wal) {
    switch (record.kind) {
      case sim::WalRecord::Kind::kAssign: ++assigns; break;
      case sim::WalRecord::Kind::kAck: ++acks; break;
      case sim::WalRecord::Kind::kComplete: ++completes; break;
      case sim::WalRecord::Kind::kSnapshot: ++snapshots; break;
      case sim::WalRecord::Kind::kRestart: ++restarts; break;
    }
  }
  Json doc = Json::object();
  doc.set("records", wal.size());
  doc.set("assigns", assigns);
  doc.set("acks", acks);
  doc.set("completes", completes);
  doc.set("snapshots", snapshots);
  doc.set("restarts", restarts);
  return doc;
}

}  // namespace

Json to_json(const sim::WorkerStats& worker) {
  Json doc = Json::object();
  doc.set("chunks", worker.chunks);
  doc.set("iterations", worker.iterations);
  doc.set("busy_time", worker.busy_time);
  doc.set("overhead_time", worker.overhead_time);
  doc.set("finish_time", worker.finish_time);
  return doc;
}

Json to_json(const sim::RunResult& run) {
  Json doc = Json::object();
  doc.set("makespan", run.makespan);
  doc.set("serial_end", run.serial_end);
  doc.set("finish_time_cov", run.finish_time_cov());

  Json chunks = Json::object();
  chunks.set("count", run.total_chunks);
  if (!run.trace.empty()) {
    std::int64_t min_size = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_size = 0;
    std::int64_t total = 0;
    std::uint64_t lost = 0;
    for (const sim::ChunkTraceEntry& chunk : run.trace) {
      min_size = std::min(min_size, chunk.iterations);
      max_size = std::max(max_size, chunk.iterations);
      total += chunk.iterations;
      if (chunk.lost) ++lost;
    }
    chunks.set("min_size", min_size);
    chunks.set("max_size", max_size);
    chunks.set("mean_size",
               static_cast<double>(total) / static_cast<double>(run.trace.size()));
    chunks.set("lost", lost);
  }
  doc.set("chunks", std::move(chunks));

  Json workers = Json::array();
  for (const sim::WorkerStats& worker : run.workers) workers.push_back(to_json(worker));
  doc.set("workers", std::move(workers));
  doc.set("faults", to_json(run.faults));
  if (speculation_active(run.speculation)) {
    doc.set("speculation", to_json(run.speculation));
  }
  // Hardened-channel / checkpoint blocks only when the machinery ran, so
  // clean runs (and their goldens) keep the legacy shape.
  if (run.channel.active()) doc.set("channel", to_json(run.channel));
  if (run.checkpoint.active()) {
    doc.set("checkpoint", to_json(run.checkpoint));
    if (!run.wal.empty()) doc.set("wal", wal_summary(run.wal));
  }
  if (run.quarantine.active()) doc.set("quarantine", to_json(run.quarantine));
  return doc;
}

Json to_json(const sim::ReplicationSummary& summary, double deadline) {
  Json doc = Json::object();
  doc.set("replications", summary.replications);
  doc.set("mean_makespan", summary.mean_makespan);
  doc.set("median_makespan", summary.median_makespan);
  doc.set("stddev_makespan", summary.stddev_makespan);
  doc.set("min_makespan", summary.min_makespan);
  doc.set("max_makespan", summary.max_makespan);
  doc.set("deadline_hit_rate", summary.deadline_hit_rate);
  doc.set("mean_ci", to_json(summary.mean_ci));
  doc.set("hit_rate_ci", to_json(summary.hit_rate_ci));
  if (std::isfinite(deadline)) {
    doc.set("deadline", deadline);
    doc.set("deadline_slack", deadline - summary.median_makespan);
  }
  doc.set("faults_total", to_json(summary.faults_total));
  if (speculation_active(summary.speculation_total)) {
    doc.set("speculation_total", to_json(summary.speculation_total));
  }
  if (summary.channel_total.active()) {
    doc.set("channel_total", to_json(summary.channel_total));
  }
  if (summary.checkpoint_total.active()) {
    doc.set("checkpoint_total", to_json(summary.checkpoint_total));
  }
  if (summary.quarantine_total.active()) {
    doc.set("quarantine_total", to_json(summary.quarantine_total));
  }
  return doc;
}

Json to_json(const ra::GroupAssignment& group, const sysmodel::Platform& platform) {
  Json doc = Json::object();
  doc.set("processor_type", group.processor_type);
  doc.set("type_name", platform.type(group.processor_type).name);
  doc.set("processors", group.processors);
  return doc;
}

Json to_json(const ra::Allocation& allocation, const sysmodel::Platform& platform) {
  Json doc = Json::array();
  for (const ra::GroupAssignment& group : allocation.groups()) {
    doc.push_back(to_json(group, platform));
  }
  return doc;
}

Json to_json(const core::StageOneResult& stage_one, const sysmodel::Platform& platform) {
  Json doc = Json::object();
  doc.set("heuristic", stage_one.heuristic_name);
  doc.set("phi1", stage_one.phi1);
  doc.set("allocation", to_json(stage_one.allocation, platform));
  Json expected = Json::array();
  for (double t : stage_one.expected_times) expected.push_back(t);
  doc.set("expected_times", std::move(expected));
  Json probabilities = Json::array();
  for (double p : stage_one.app_probabilities) probabilities.push_back(p);
  doc.set("app_probabilities", std::move(probabilities));
  return doc;
}

Json to_json(const core::RobustnessReport& report) {
  Json doc = Json::object();
  doc.set("rho1", report.rho1);
  doc.set("rho2", report.rho2);
  doc.set("rho2_case", report.rho2_case);
  return doc;
}

Json to_json(const core::StageTwoResult& stage_two, double deadline) {
  Json doc = Json::object();
  doc.set("case", stage_two.case_name);
  doc.set("all_meet_deadline", stage_two.all_meet_deadline);
  doc.set("system_makespan", stage_two.system_makespan);
  Json applications = Json::array();
  for (std::size_t app = 0; app < stage_two.outcomes.size(); ++app) {
    Json entry = Json::object();
    entry.set("application", app);
    entry.set("best_technique",
              app < stage_two.best_technique.size() ? stage_two.best_technique[app] : -1);
    Json techniques = Json::array();
    for (const core::AppTechniqueOutcome& outcome : stage_two.outcomes[app]) {
      Json record = Json::object();
      record.set("technique", dls::technique_name(outcome.technique));
      record.set("meets_deadline", outcome.meets_deadline);
      record.set("summary", to_json(outcome.summary, deadline));
      techniques.push_back(std::move(record));
    }
    entry.set("techniques", std::move(techniques));
    applications.push_back(std::move(entry));
  }
  doc.set("applications", std::move(applications));
  return doc;
}

Json metrics_json() { return MetricsRegistry::global().snapshot().to_json(); }

namespace {

/// Appends the global metrics snapshot under "metrics" when the registry
/// is collecting; a disabled registry leaves the report untouched.
void maybe_attach_metrics(Json& doc) {
  if (MetricsRegistry::global().enabled()) doc.set("metrics", metrics_json());
}

}  // namespace

Json make_run_report(const std::string& label, const sim::RunResult& run, double deadline) {
  Json doc = Json::object();
  doc.set("schema", kRunReportSchema);
  doc.set("label", label);
  if (std::isfinite(deadline)) {
    doc.set("deadline", deadline);
    doc.set("deadline_slack", deadline - run.makespan);
  }
  doc.set("run", to_json(run));
  maybe_attach_metrics(doc);
  return doc;
}

Json make_scenario_report(const core::Framework& framework,
                          const core::ScenarioResult& scenario,
                          const std::vector<sysmodel::AvailabilitySpec>& cases) {
  Json doc = Json::object();
  doc.set("schema", kScenarioReportSchema);
  doc.set("scenario", scenario.name);
  doc.set("deadline", framework.deadline());
  doc.set("stage_one", to_json(scenario.stage_one, framework.platform()));
  doc.set("robustness", to_json(framework.robustness_report(scenario, cases)));
  Json per_case = Json::array();
  for (const core::StageTwoResult& stage_two : scenario.per_case) {
    per_case.push_back(to_json(stage_two, framework.deadline()));
  }
  doc.set("cases", std::move(per_case));
  maybe_attach_metrics(doc);
  return doc;
}

Json make_plan_report(const core::Framework& framework,
                      const core::Framework::ExecutionPlan& plan,
                      const sim::BatchRunResult& result) {
  Json doc = Json::object();
  doc.set("schema", kPlanReportSchema);
  doc.set("deadline", framework.deadline());
  Json plan_doc = Json::object();
  plan_doc.set("phi1", plan.phi1);
  plan_doc.set("allocation", to_json(plan.allocation, framework.platform()));
  Json techniques = Json::array();
  for (dls::TechniqueId id : plan.techniques) {
    techniques.push_back(dls::technique_name(id));
  }
  plan_doc.set("techniques", std::move(techniques));
  doc.set("plan", std::move(plan_doc));
  Json makespans = Json::array();
  for (double psi : result.app_makespans) makespans.push_back(psi);
  doc.set("app_makespans", std::move(makespans));
  doc.set("system_makespan", result.system_makespan);
  doc.set("deadline_slack", framework.deadline() - result.system_makespan);
  doc.set("meets_deadline", result.system_makespan <= framework.deadline());
  maybe_attach_metrics(doc);
  return doc;
}

Json make_dynamic_report(const core::DynamicRunResult& result,
                         const core::DynamicConfig& config,
                         const sysmodel::Platform& platform) {
  Json doc = Json::object();
  doc.set("schema", kDynamicReportSchema);
  doc.set("technique", dls::technique_name(config.technique));
  doc.set("deadline_slack", config.deadline_slack);
  doc.set("remap_on_rho2", config.remap_on_rho2);
  if (config.remap_on_rho2) doc.set("rho2", config.rho2);
  doc.set("remap_triggered", result.remap_triggered);
  doc.set("realized_decrease", result.realized_decrease);
  if (config.escalate_speculation_on_risk) {
    doc.set("speculation_risk_floor", config.speculation_risk_floor);
    doc.set("speculation_escalations", result.speculation_escalations);
  }
  if (speculation_active(result.speculation_total)) {
    doc.set("speculation_total", to_json(result.speculation_total));
  }
  // The admission block (and the per-outcome disposition) only appear when
  // the admission layer is active, so default accept-all reports stay
  // byte-identical to the pre-admission schema.
  const bool admission_active = config.admission.active();
  if (admission_active) {
    const core::AdmissionConfig& adm = config.admission;
    const core::AdmissionStats& stats = result.admission;
    Json admission = Json::object();
    admission.set("policy", core::admission_policy_name(adm.policy));
    admission.set("queue_capacity", adm.queue_capacity);
    admission.set("queue_order", core::queue_order_name(adm.queue_order));
    if (adm.admit_floor > 0.0) admission.set("admit_floor", adm.admit_floor);
    if (adm.shed_floor > 0.0) admission.set("shed_floor", adm.shed_floor);
    admission.set("ladder", adm.ladder);
    admission.set("arrivals", stats.arrivals);
    admission.set("admitted", stats.admitted);
    admission.set("queued", stats.queued);
    admission.set("rejected", stats.rejected);
    admission.set("shed", stats.shed);
    admission.set("ladder_steps", stats.ladder_steps);
    admission.set("max_tier", core::degradation_tier_name(static_cast<core::DegradationTier>(
                                  std::min<std::uint64_t>(stats.max_tier, 4))));
    admission.set("peak_queue_depth", stats.peak_queue_depth);
    admission.set("identity_holds", stats.identity_holds());
    admission.set("admitted_hit_rate", result.admitted_hit_rate);
    doc.set("admission", std::move(admission));
  }
  doc.set("deadline_hit_rate", result.deadline_hit_rate);
  doc.set("mean_queueing_delay", result.mean_queueing_delay);
  doc.set("utilization", result.utilization);
  doc.set("horizon", result.horizon);
  Json outcomes = Json::array();
  for (const core::DynamicOutcome& outcome : result.outcomes) {
    Json entry = Json::object();
    entry.set("arrival_time", outcome.arrival_time);
    entry.set("start_time", outcome.start_time);
    entry.set("completion_time", outcome.completion_time);
    entry.set("group", to_json(outcome.group, platform));
    entry.set("probability", outcome.probability);
    entry.set("met_deadline", outcome.met_deadline);
    entry.set("slack", outcome.arrival_time + outcome.deadline_slack - outcome.completion_time);
    if (admission_active) {
      const char* disposition = "admitted";
      if (outcome.disposition == core::DynamicOutcome::Disposition::kRejected) {
        disposition = "rejected";
      } else if (outcome.disposition == core::DynamicOutcome::Disposition::kShed) {
        disposition = "shed";
      }
      entry.set("disposition", disposition);
    }
    outcomes.push_back(std::move(entry));
  }
  doc.set("applications", std::move(outcomes));
  maybe_attach_metrics(doc);
  return doc;
}

Json make_chaos_report(const sim::ChaosReport& report, const sim::ChaosConfig& config) {
  Json doc = Json::object();
  doc.set("schema", kChaosReportSchema);
  Json campaign = Json::object();
  campaign.set("schedules", config.schedules);
  campaign.set("seed", config.seed);
  campaign.set("processors", config.processors);
  campaign.set("serial_iterations", sim::ChaosConfig::kSerialIterations);
  campaign.set("parallel_iterations", config.parallel_iterations);
  campaign.set("max_failures", config.max_failures);
  campaign.set("include_mpi", config.include_mpi);
  campaign.set("speculation", config.speculation);
  campaign.set("channel_faults", config.channel_faults);
  campaign.set("master_restart", config.master_restart);
  campaign.set("fail_slow", config.fail_slow);
  campaign.set("corruption", config.corruption);
  Json thread_counts = Json::array();
  for (std::size_t threads : config.thread_counts) thread_counts.push_back(threads);
  campaign.set("thread_counts", std::move(thread_counts));
  campaign.set("replications", config.replications);
  doc.set("campaign", std::move(campaign));
  doc.set("passed", report.passed());
  doc.set("schedules_run", report.schedules_run);
  doc.set("runs_executed", report.runs_executed);
  doc.set("failures_injected", report.failures_injected);
  doc.set("schedules_with_speculation", report.schedules_with_speculation);
  doc.set("schedules_with_channel_faults", report.schedules_with_channel_faults);
  doc.set("schedules_with_master_restart", report.schedules_with_master_restart);
  doc.set("schedules_with_quarantine", report.schedules_with_quarantine);
  doc.set("schedules_with_corruption", report.schedules_with_corruption);
  doc.set("max_makespan", report.max_makespan);
  Json violations = Json::array();
  for (const sim::ChaosViolation& violation : report.violations) {
    Json entry = Json::object();
    entry.set("schedule", violation.schedule);
    entry.set("seed", violation.seed);
    entry.set("executor", violation.executor);
    entry.set("invariant", violation.invariant);
    entry.set("detail", violation.detail);
    violations.push_back(std::move(entry));
  }
  doc.set("violations", std::move(violations));
  doc.set("faults_total", to_json(report.faults_total));
  doc.set("speculation_total", to_json(report.speculation_total));
  doc.set("channel_total", to_json(report.channel_total));
  doc.set("checkpoint_total", to_json(report.checkpoint_total));
  doc.set("quarantine_total", to_json(report.quarantine_total));
  maybe_attach_metrics(doc);
  return doc;
}

void write_json(const Json& document, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_json: cannot open " + path);
  out << document.dump(1) << "\n";
  out.flush();  // so a full disk fails here, not silently at close
  if (!out) throw std::runtime_error("write_json: write failed for " + path);
}

}  // namespace cdsf::obs
