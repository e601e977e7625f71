// Message-passing master–worker execution model.
//
// The DLS implementations behind the paper (and its cited studies) are MPI
// master–worker codes: an idle worker SENDs a work request, the master
// computes the chunk size and REPLYs with an assignment, and completion
// timings travel back with the next request. loop_executor.hpp abstracts
// that protocol into a fixed per-chunk overhead; this model makes it
// explicit:
//
//   * every message costs a one-way latency,
//   * the master handles one request at a time (service time per request),
//     so fine-grained techniques (SS) can SATURATE the master at scale —
//     the classic effect that motivated chunking in the first place,
//   * the technique's feedback (record) fires when the master RECEIVES the
//     completion report, not when the chunk finishes.
//
// Every run accounts a chunk only when its completion report is ACCEPTED,
// so lost, falsely suspected, and cancelled copies never reach the worker
// stats or the technique. The chunk lifecycle is detail::ChunkLedger in
// sim_common, shared with loop_executor.cpp; this file owns the transport.
// Unlike the ideal one, the straggler fallback divides by the a-priori
// weight and its timer fires one latency later; accept charges start -
// dispatch at the report's arrival, with the WAL append between record()
// and the gray checks; a lost losing copy is recorded when the winner is
// accepted; crashes are detected by timeouts and rejoin requests.
//
// The transport has four parts in master_worker.cpp:
//   * detail::Channel is the wire: the fault draws and test hooks, the
//     ChannelStats counters, and at-least-once transmission. A message
//     names its kind (request, assignment, report, either ack, or bench
//     notice); one switch of the executor says where each kind lands, and
//     one says what answers each resent kind (requests, assignments and
//     reports resend until answered or out of retries).
//   * The master's log is the write-ahead log the executor appends to;
//     sim/wal_recovery writes and reads its cdsf.master_checkpoint/1
//     document and holds the scan (scan_wal) that restart reconciles with.
//   * One record per worker (detail::Peer) holds the sequence numbers of
//     both sides. Its worker half survives a master restart; its master
//     half (ack and report dedup marks, timeout escalation, queued-service
//     and canary marks) is rebuilt by the restart in one place.
//   * detail::MpiExecutor is one run: its members are the protocol steps,
//     and simulate_loop_mpi only builds and runs it.
// Three rules keep a rejoining worker to one assignment and the channel
// counters exact: a service queued for a worker clears its idle mark (no
// scan may wake it for a second service), a reliable rejoin queues no
// service while one is pending, and a hardened rejoin from a worker
// benched before its crash gets the bench notice again without counting a
// dedup hit (it is a fresh request, not a resend).
//
// With zero latency and service time this model reproduces every output
// of simulate_loop with zero scheduling_overhead (the differential test
// MpiModel.ZeroCostsReduceToIdealExecutor), except under speculation and
// crashes.
//
// The substrate may additionally be UNRELIABLE (SimConfig::channel): a
// seeded ChannelModel drops, duplicates, and reorders messages (plus
// burst-loss episodes), and the protocol hardens to at-least-once
// semantics — monotonically sequence-numbered assignments and reports,
// master- and worker-side dedup (a re-delivered assignment is never
// executed twice; a duplicated report never double-feeds record()), and
// ack-driven retransmission with exponential backoff that composes with
// the failure detector's false-suspicion timeout doubling. The MASTER
// itself can crash and restart (FailureKind::kMasterCrashRestart) from a
// write-ahead log + periodic snapshots (SimConfig::checkpoint): restart
// re-dispatches unacked assignments and never re-records completed work.
// Which protocol runs: a faulty channel or checkpointing (a master fault
// implies it) selects the hardened one; otherwise the reliable protocol
// delivers every message exactly once, one latency after it is sent. The
// failure detector's timeouts run with crash-kind failures or the
// hardened protocol; straggler checks run only with speculation enabled.
//
// GRAY failures — workers that are wrong rather than dead — are handled by
// three cooperating layers (shared semantics with loop_executor.cpp):
// payload corruption on the channel (ChannelModel::corrupt_*) is caught by
// checksum framing at the receiver, counted in ChannelStats, and recovered
// through the ack/retransmit loop, so a corrupted report can never reach
// record(); a per-worker fail-slow EWMA (SimConfig::quarantine) drains
// persistent underperformers into quarantine, probes them with canary
// chunks, and reinstates them on sustained recovery; and an audit_rate
// fraction of accepted chunks is re-executed on an independent worker,
// with a mismatch marking the ORIGINATING worker suspect — catching
// silent data corruption (FailureKind::kSilentCorrupt) that checksums
// cannot see. All of it is structurally disarmed when unconfigured.
#pragma once

#include <cstdint>

#include "sim/loop_executor.hpp"

namespace cdsf::sim {

/// Communication cost model.
struct MessageModel {
  /// One-way message latency (request, assignment, and report alike).
  double latency = 0.25;
  /// Master CPU time to handle one request (dequeue, compute chunk, reply).
  double master_service_time = 0.05;
};

/// Master-side accounting.
struct MasterStats {
  std::uint64_t requests_handled = 0;
  double busy_time = 0.0;
  /// Total time requests spent waiting in the master's queue.
  double queue_wait_time = 0.0;
  /// Longest single queue wait.
  double max_queue_wait = 0.0;
};

/// RunResult plus the master's accounting.
struct MpiRunResult {
  RunResult run;
  MasterStats master;
};

/// Simulates one application execution under the message-passing protocol.
/// The master is a dedicated coordinator (it does not compute iterations);
/// serial iterations still execute on worker 0 before the parallel loop.
/// Throws like simulate_loop, plus std::invalid_argument for negative
/// message costs.
[[nodiscard]] MpiRunResult simulate_loop_mpi(const workload::Application& application,
                                             std::size_t processor_type, std::size_t processors,
                                             const sysmodel::AvailabilitySpec& availability,
                                             dls::TechniqueId technique,
                                             const SimConfig& config,
                                             const MessageModel& messages, std::uint64_t seed);

/// Factory variant (custom techniques).
[[nodiscard]] MpiRunResult simulate_loop_mpi(const workload::Application& application,
                                             std::size_t processor_type, std::size_t processors,
                                             const sysmodel::AvailabilitySpec& availability,
                                             const TechniqueFactory& factory,
                                             const SimConfig& config,
                                             const MessageModel& messages, std::uint64_t seed);

/// Replicated MPI runs: the message-passing analogue of
/// simulate_replicated, additionally filling ReplicationSummary::
/// channel_total / checkpoint_total. Every replication derives its
/// randomness (including channel faults) from its own child seed and the
/// accumulation is in replication order, so the summary is bit-identical
/// for ANY thread count. Throws std::invalid_argument if replications == 0.
[[nodiscard]] ReplicationSummary simulate_replicated_mpi(
    const workload::Application& application, std::size_t processor_type,
    std::size_t processors, const sysmodel::AvailabilitySpec& availability,
    dls::TechniqueId technique, const SimConfig& config, const MessageModel& messages,
    std::uint64_t seed, std::size_t replications, double deadline, std::size_t threads = 1);

}  // namespace cdsf::sim
