#include "sim/master_worker.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sim_common.hpp"
#include "sim/wal_recovery.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace cdsf::sim {

namespace detail {
namespace {

using Range = IterationPool::Range;
constexpr std::size_t kNone = ChunkLedger::kNone;

/// One protocol message. Requests, assignments and reports are resent
/// until answered (Channel::transmit); acks and bench notices go once.
struct Message {
  enum class Kind { kRequest, kAssignment, kReport, kAssignmentAck, kReportAck, kBench };
  Kind kind = Kind::kRequest;
  std::size_t worker = 0;
  /// The request's sequence (request, bench notice) or the assignment id.
  std::uint64_t seq = 0;
  std::uint64_t request = 0;  // assignment: the request it answers
  bool rejoin = false;        // request: the worker's first after an outage
  Range range{};              // assignment
  double start_time = 0.0;    // report: the chunk's compute window
  double end_time = 0.0;
  std::uint64_t epoch = 0;  // assignment: the master incarnation that sent it

  [[nodiscard]] bool to_worker() const {
    return kind == Kind::kAssignment || kind == Kind::kReportAck || kind == Kind::kBench;
  }
  [[nodiscard]] bool ack() const {
    return kind == Kind::kAssignmentAck || kind == Kind::kReportAck;
  }
};

class MpiExecutor;

/// The wire between the master and its workers (see master_worker.hpp).
/// Its fault draws come from streams fanned out of the run seed (children
/// 17 and 19 — prepare_run owns 0 and 100+), so arming it never perturbs
/// the work-sampling or availability streams.
class Channel {
 public:
  Channel(MpiExecutor& protocol, const ChannelModel& model, double latency, std::uint64_t seed,
          Engine& engine, ChannelStats& stats, EventWriter& events)
      : protocol_(protocol),
        model_(model),
        latency_(latency),
        engine_(engine),
        stats_(stats),
        events_(events) {
    if (model.faulty()) {
      rng_.emplace(util::SeedSequence(seed).child(17));
      if (model.burst_gap_mean > 0.0) {
        bursts_.emplace(model.burst_gap_mean, model.burst_duration,
                        util::SeedSequence(seed).child(19));
      }
    }
  }
  Channel(const Channel&) = delete;  // pending deliveries hold its address
  Channel& operator=(const Channel&) = delete;

  /// Offers `m` once: one delivery a latency later on a clean channel.
  void send(const Message& m);

  /// At-least-once: offers `m` now and again with exponential backoff
  /// until the protocol finds it answered or the retry budget is spent.
  void transmit(const Message& m) {
    send(m);
    resend_after(m, model_.rto, model_.max_retransmits);
  }

  /// One retransmission of `m`, offered now.
  void retransmit(const Message& m);

 private:
  void resend_after(const Message& m, double rto, std::size_t retries_left);

  MpiExecutor& protocol_;
  ChannelModel model_;  // its force_* test hooks count down as they fire
  double latency_;
  Engine& engine_;
  ChannelStats& stats_;
  EventWriter& events_;
  std::optional<util::RngStream> rng_;  // engaged iff the channel is faulty
  std::optional<sysmodel::BurstWindows> bursts_;
};

/// One worker's protocol memory. The worker half survives a master
/// restart; the master half dies with the master and is rebuilt from the
/// write-ahead log.
struct Peer {
  std::uint64_t request_seq = 0;       // requests issued
  std::uint64_t reply_seq = 0;         // highest request answered
  std::uint64_t executed_seq = 0;      // assignment dedup
  std::uint64_t cancelled_seq = 0;     // speculation-loser suppression
  std::uint64_t report_acked_seq = 0;  // highest report the master acked
  struct Master {
    std::uint64_t assign_acked_seq = 0;  // highest assignment the worker acked
    std::uint64_t processed_seq = 0;     // report dedup
    /// Doubled by each proven-false suspicion, so a timeout below the true
    /// round trip converges above it instead of livelocking the run.
    double timeout_scale = 1.0;
    /// A queued service answers any further request; a second one would
    /// overwrite the first assignment and strand its range.
    bool service_pending = false;
    bool probe_pending = false;  // the queued service is a canary
  } master;
};

/// The message-passing executor of one run: master, workers and Channel
/// over the ChunkLedger that holds the chunk lifecycle.
class MpiExecutor {
 public:
  MpiExecutor(const workload::Application& application, std::size_t processor_type,
              const SimConfig& config, const MessageModel& messages, std::uint64_t seed,
              PreparedRun& prepared, dls::Technique& technique, MpiRunResult& result)
      : application_(application),
        processor_type_(processor_type),
        config_(config),
        messages_(messages),
        prepared_(prepared),
        workers_(prepared.workers),
        result_(result),
        crash_mode_(has_crash_failures(config)),
        // A master restart needs the WAL to reconcile against, and messages
        // arriving at a down master are lost: a master fault implies
        // checkpointing, which arms the hardened protocol.
        checkpointing_(config.checkpoint.enabled || master_restart_failure(config) != nullptr),
        hardened_(config.channel.faulty() || checkpointing_),
        detection_((crash_mode_ || hardened_) && config.fault_detection.enabled),
        events_(config, workers_.size(), result.run),
        serial_end_(run_prologue(
            result.run, events_, application, config, prepared.input_factor,
            prepared.mean_iter, prepared.stddev_iter, workers_, prepared.run_rng,
            "simulate_loop_mpi: worker 0 crashed during the serial phase — the serial "
            "iterations have no fault tolerance (re-dispatch needs the loop to open)")),
        // The slowdown baseline's dispatch cost is the assignment's latency.
        gray_(config, workers_, seed, prepared.input_factor, messages.latency, result.run,
              events_),
        ledger_(config, application.parallel_iterations(), workers_.size(),
                prepared.input_factor, technique, result.run, events_, gray_),
        channel_(*this, config.channel, messages.latency, seed, engine_, result.run.channel,
                 events_),
        peers_(workers_.size()) {
    // Flight ring only: run_prologue already listed the known-up-front
    // crash and recovery instants.
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].crashes()) continue;
      events_.record(obs::FlightEventKind::kWorkerCrashed, workers_[w].crash_time, w);
      if (std::isfinite(workers_[w].recovery_time)) {
        events_.record(obs::FlightEventKind::kWorkerRecovered, workers_[w].recovery_time, w);
      }
    }
  }
  MpiExecutor(const MpiExecutor&) = delete;  // pending events hold its address
  MpiExecutor& operator=(const MpiExecutor&) = delete;

  /// Runs the loop and the epilogue, and writes the checkpoint JSON.
  void run() {
    if (application_.parallel_iterations() > 0) {
      // Workers down at the kick send no request; their rejoin is their
      // first contact.
      engine_.schedule_at(serial_end_, [this] {
        for (std::size_t w = 0; w < workers_.size(); ++w) {
          if (workers_[w].down_at(serial_end_)) continue;
          if (hardened_) {
            send_request(w, false);
          } else {
            engine_.schedule_after(messages_.latency, [this, w] { queue_service(w, 0); });
          }
        }
      });
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        const Worker& worker = workers_[w];
        // An outage inside the serial phase is invisible to the loop: the
        // kick request covers the worker, and a rejoin would enter it twice.
        if (!std::isfinite(worker.recovery_time) || worker.recovery_time <= serial_end_) continue;
        // The rejoin also reveals that the old chunk died with the worker,
        // even when timeout detection is off.
        if (hardened_) {
          engine_.schedule_at(worker.recovery_time, [this, w] { send_request(w, true); });
        } else {
          engine_.schedule_at(worker.recovery_time + messages_.latency, [this, w] {
            ledger_.down[w] = 0;
            reclaim(w);
            // A worker that crashed and recovered before the master served
            // its kick request is answered by that service.
            if (!peers_[w].master.service_pending) queue_service(w, 0);
          });
        }
      }
      if (const SimConfig::Failure* master_fault = master_restart_failure(config_)) {
        engine_.schedule_at(master_fault->time, [this] {
          master_down_ = true;
          master_epoch_ += 1;  // every pending master-side timer is now stale
          events_.emit(obs::FlightEventKind::kMasterCrashed, now(), obs::kFlightMasterTrack);
          CDSF_LOG_TRACE << "mpi master crashed at " << now();
        });
        engine_.schedule_at(master_fault->recovery_time, [this] { restart(); });
      }
      if (checkpointing_) {
        engine_.schedule_at(serial_end_ + config_.checkpoint.interval,
                            [this] { snapshot_tick(); });
      }
      if (gray_.armed) {
        engine_.schedule_at(serial_end_ + config_.quarantine.probe_interval,
                            [this] { probe_tick(); });
      }
      engine_.run();
    }
    finish_run(result_.run, config_, events_, gray_, now(),
               application_.parallel_iterations() - ledger_.completed, "simulate_loop_mpi",
               " iterations stranded by crashes (fault detection disabled or no "
               "surviving worker to re-dispatch to)");
    if (checkpointing_ && !config_.checkpoint.json_path.empty()) {
      write_checkpoint_json(config_.checkpoint.json_path, result_.run);
    }
  }

  /// Where each message lands.
  void deliver(const Message& m) {
    const std::size_t w = m.worker;
    Peer& peer = peers_[w];
    switch (m.kind) {
      case Message::Kind::kRequest:
        master_handle_request(w, m.seq, m.rejoin);
        break;
      case Message::Kind::kAssignment:
        worker_receive_assignment(m);
        break;
      case Message::Kind::kReport:
        master_receive_report(m);
        break;
      case Message::Kind::kAssignmentAck:
        if (master_down_ || m.seq <= peer.master.assign_acked_seq) break;  // duplicate ack
        peer.master.assign_acked_seq = m.seq;
        log(WalRecord::Kind::kAck, w, m.seq, 0, 0);
        break;
      case Message::Kind::kReportAck:
        peer.report_acked_seq = std::max(peer.report_acked_seq, m.seq);
        break;
      case Message::Kind::kBench:  // stops the request's retries, unless the worker died
        if (!workers_[w].down_at(now())) peer.reply_seq = std::max(peer.reply_seq, m.seq);
        break;
    }
  }

  /// What answers each resent kind. A resend is also moot once its sender
  /// died: a master-side timer dies with its master's incarnation, a
  /// worker-side one while its worker is down.
  [[nodiscard]] bool answered(const Message& m) const {
    const Peer& peer = peers_[m.worker];
    switch (m.kind) {
      case Message::Kind::kRequest:  // the assignment or bench notice
        return workers_[m.worker].down_at(now()) || peer.reply_seq >= m.seq;
      case Message::Kind::kAssignment:  // the worker's ack, or the master took it back
        return m.epoch != master_epoch_ || peer.master.assign_acked_seq >= m.seq ||
               !outstanding(m.worker, m.seq);
      case Message::Kind::kReport:  // the master's ack, or the copy lost the race
        return workers_[m.worker].down_at(now()) || peer.report_acked_seq >= m.seq ||
               peer.cancelled_seq >= m.seq;
      default:
        return true;  // acks and bench notices are never resent
    }
  }

  /// A resent assignment marks its trace entry.
  void retransmitted(const Message& m) {
    if (m.kind != Message::Kind::kAssignment || !outstanding(m.worker, m.seq)) return;
    const Assignment& out = ledger_.assignment[m.worker];
    if (out.trace_index >= 0) {
      result_.run.trace[static_cast<std::size_t>(out.trace_index)].retransmitted = true;
    }
  }

 private:
  // The periodic timers stop once the loop completed, or after a long
  // stretch without progress (a stranded run must reach the diagnostics).
  struct Progress {
    std::int64_t last_completed = -1;
    std::size_t stagnant = 0;
  };
  struct Compute {
    double end;
    bool lost;
  };

  [[nodiscard]] double now() const { return engine_.now(); }

  [[nodiscard]] bool outstanding(std::size_t w, std::uint64_t id) const {
    const Assignment& a = ledger_.assignment[w];
    return a.active && a.id == id;
  }

  // Benched workers get the master's deferred reply to returned work.
  void wake_idle() {
    ledger_.wake_idle([this](std::size_t v) { queue_service(v, 0); });
  }

  // Takes worker w's chunk away (declared dead, or rejoined after a crash)
  // and returns its range to the pool unless the partner copy covers it.
  void reclaim(std::size_t w) {
    Assignment& out = ledger_.assignment[w];
    if (!out.active) return;
    out.active = false;
    if (out.lost) {
      FaultStats& faults = result_.run.faults;
      const double detect_latency = std::max(0.0, now() - workers_[w].crash_time);
      faults.detection_latency_total += detect_latency;
      faults.max_detection_latency = std::max(faults.max_detection_latency, detect_latency);
      double wasted = out.start_time - out.dispatch_time;
      if (out.start_time < now()) {
        wasted += workers_[w].availability->work_delivered(out.start_time, now());
      }
      events_.lost(w, out.range, out.backup, wasted, now());
    } else {
      // A false suspicion or an undelivered hardened assignment: any late
      // report is dropped, a backup copy resolves as cancelled (keeping
      // launched == won + cancelled + lost), and the trace entry stops
      // counting as delivered work.
      events_.emit(obs::FlightEventKind::kChunkLost, now(), w, out.range);
      if (out.backup) result_.run.speculation.backups_cancelled += 1;
      if (out.trace_index >= 0) {
        result_.run.trace[static_cast<std::size_t>(out.trace_index)].cancelled = true;
      }
    }
    if (ledger_.reclaim(w)) wake_idle();
  }

  // One timeout expiration for assignment `id` on worker w; stale once the
  // report arrived, the chunk was reclaimed, or the arming master crashed.
  void probe(std::size_t w, std::uint64_t id, double interval, std::uint64_t epoch) {
    if (epoch != master_epoch_ || !outstanding(w, id)) return;
    Assignment& out = ledger_.assignment[w];
    out.probes += 1;
    events_.emit(obs::FlightEventKind::kWorkerSuspected, now(), w,
                 static_cast<std::int64_t>(out.probes));
    if (out.probes >= config_.fault_detection.max_probes) {
      ledger_.down[w] = 1;
      events_.emit(obs::FlightEventKind::kWorkerDeclaredDead, now(), w);
      // An undelivered hardened assignment is a lost message, not a
      // suspicion of a live worker.
      if (!out.lost && out.delivered) result_.run.faults.false_suspicions += 1;
      CDSF_LOG_TRACE << "mpi master declares worker " << w << " dead at " << now();
      reclaim(w);
      return;
    }
    const double next = interval * config_.fault_detection.backoff;
    engine_.schedule_at(now() + next, [this, w, id, next, epoch] { probe(w, id, next, epoch); });
  }

  // Arms the first timeout for assignment `id`. The expected round trip
  // uses the a-priori weight: the master cannot see the availability path.
  void arm_detection(std::size_t w, std::uint64_t id, std::int64_t count, double from) {
    if (!detection_) return;
    const double expected_compute = static_cast<double>(count) * prepared_.mean_iter *
                                    prepared_.input_factor /
                                    std::max(prepared_.params.weights[w], 0.05);
    const double timeout =
        std::max(config_.fault_detection.min_timeout,
                 peers_[w].master.timeout_scale * config_.fault_detection.timeout_factor *
                     (expected_compute + 2.0 * messages_.latency));
    const std::uint64_t epoch = master_epoch_;
    engine_.schedule_at(from + timeout,
                        [this, w, id, timeout, epoch] { probe(w, id, timeout, epoch); });
  }

  // Appends one record to the write-ahead log (checkpointing only).
  void log(WalRecord::Kind kind, std::size_t w, std::uint64_t seq, std::int64_t first,
           std::int64_t count) {
    if (!checkpointing_) return;
    result_.run.wal.push_back({kind, now(), w, seq, first, count});
    result_.run.checkpoint.wal_records += 1;
    events_.emit(obs::FlightEventKind::kWalAppend, now(), obs::kFlightMasterTrack,
                 static_cast<std::int64_t>(seq), count);
  }

  // Draws the work of `range` on worker w from `start_time`. Lost iff the
  // worker's outage touches the chunk (a permanent crash makes the end
  // +infinity, which also lands here).
  Compute compute(std::size_t w, Range range, double start_time) {
    const Worker& worker = workers_[w];
    const double work =
        prepared_.input_factor * chunk_work(application_, processor_type_, prepared_.mean_iter,
                                            prepared_.stddev_iter, config_.iteration_cov,
                                            range.first, range.count, *worker.rng);
    const double end_time = worker.availability->finish_time(start_time, work);
    return Compute{end_time, start_time < worker.recovery_time && end_time > worker.crash_time};
  }

  void dedup_hit(std::size_t w, std::uint64_t seq) {
    result_.run.channel.dedup_hits += 1;
    events_.emit(obs::FlightEventKind::kDedupHit, now(), w, static_cast<std::int64_t>(seq));
  }

  // Re-executes an accepted chunk on worker v. The replica is validation
  // traffic outside the assignment protocol: it feeds neither record() nor
  // coverage, and its verdict reaches the master one latency after it ends.
  void launch_audit(std::size_t v, const GrayPolicy::AuditJob& job) {
    const double dispatch_time = now();
    const double start_time = dispatch_time + messages_.latency;
    const Compute c = compute(v, job.range, start_time);
    CDSF_LOG_TRACE << "mpi worker " << v << " audit " << job.range.count << " of worker "
                   << job.origin << " [" << dispatch_time << ", " << c.end << "]"
                   << (c.lost ? " LOST" : "");
    // A replica lost to its worker's crash never delivers a verdict.
    if (!gray_.launch_audit(v, job, dispatch_time, start_time, c.end, c.lost)) return;
    const std::uint64_t epoch = master_epoch_;
    const double end_time = c.end;
    engine_.schedule_at(end_time + messages_.latency, [this, v, job, epoch, dispatch_time,
                                                      start_time, end_time] {
      if (master_down_ || epoch != master_epoch_ || !gray_.auditing[v]) {
        return;  // the verdict died with the master (counted at restart)
      }
      gray_.audit_verdict(v, job, start_time, end_time, start_time - dispatch_time, now());
      queue_service(v, 0);
    });
  }

  // Worker v's copy lost the race: stop it, charge its sunk work, and bring
  // the worker back. The cancel notice is abstracted to this instant (in
  // the hardened protocol it also annihilates in-flight report copies via
  // cancelled_seq); the loser's next request pays the latencies.
  void cancel_partner(std::size_t v) {
    Assignment& out = ledger_.assignment[v];
    out.active = false;
    const double sunk = ledger_.sunk_work(v, messages_.latency, now(), *workers_[v].availability);
    if (out.lost) {
      // Already stranded by its worker's crash: accounted as lost, with no
      // report to cancel and no request to solicit.
      events_.lost(v, out.range, out.backup, sunk, now());
      return;
    }
    if (hardened_) peers_[v].cancelled_seq = std::max(peers_[v].cancelled_seq, out.id);
    engine_.cancel(out.event);
    events_.cancelled(v, out.range, out.backup, sunk, out.trace_index, now());
    const double receive = now() + messages_.latency;
    if (workers_[v].down_at(receive)) return;
    if (hardened_) {
      engine_.schedule_at(receive, [this, v] {
        if (!ledger_.down[v]) send_request(v, false);
      });
    } else {
      engine_.schedule_at(receive + messages_.latency, [this, v] {
        if (!ledger_.down[v]) queue_service(v, 0);
      });
    }
  }

  // Proof of life (a late report or a fresh request) from a worker declared
  // dead: reinstate it and double its timeout. True when it was down.
  bool reinstate(std::size_t w) {
    if (!ledger_.down[w]) return false;
    ledger_.down[w] = 0;
    peers_[w].master.timeout_scale *= 2.0;
    events_.emit(obs::FlightEventKind::kWorkerReinstated, now(), w);
    return true;
  }

  // A report whose assignment is no longer outstanding: its work is
  // wasted, but the worker is alive. True when it was reinstated.
  bool drop_late_report(std::size_t w, double start_time, double end_time) {
    result_.run.faults.wasted_work +=
        workers_[w].availability->work_delivered(start_time, end_time);
    return reinstate(w);
  }

  // Worker w's outstanding assignment is accepted: the ledger accounts it
  // and feeds the technique, the WAL logs it, the gray checks run, the
  // losing copy stops, and the worker is served again.
  void accept_report(std::size_t w) {
    const Assignment& out = ledger_.assignment[w];
    ledger_.accept(w, out.start_time - out.dispatch_time, now());
    log(WalRecord::Kind::kComplete, w, out.id, out.range.first, out.range.count);
    const ChunkLedger::Settled settled = ledger_.settle(w, now(), prepared_.mean_iter);
    if (settled.auditor != kNone) queue_service(settled.auditor, 0);
    if (settled.loser != kNone) cancel_partner(settled.loser);
    queue_service(w, 0);
  }

  // Hardened: a report copy reaches the master. Every copy is acked (the
  // last ack may have dropped); dedup keeps record() fed exactly once.
  void master_receive_report(const Message& m) {
    const std::size_t w = m.worker;
    Peer& peer = peers_[w];
    if (master_down_) return;                 // lost with the master; the worker retransmits
    if (peer.cancelled_seq >= m.seq) return;  // cancelled loser: already resolved
    channel_.send({.kind = Message::Kind::kReportAck, .worker = w, .seq = m.seq});
    if (m.seq <= peer.master.processed_seq) {
      dedup_hit(w, m.seq);
      return;
    }
    peer.master.processed_seq = m.seq;
    if (outstanding(w, m.seq)) {
      accept_report(w);
      return;
    }
    (void)drop_late_report(w, m.start_time, m.end_time);
    // Alive and idle either way (a restart reclaim orphans a live worker
    // as a false suspicion does): bring it back.
    if (!ledger_.assignment[w].active) queue_service(w, 0);
  }

  // Hardened: an assignment copy reaches the worker. Computation starts at
  // the first delivery; every copy is acked and none runs twice.
  void worker_receive_assignment(const Message& m) {
    const std::size_t w = m.worker;
    const std::uint64_t id = m.seq;
    const double start_time = now();
    if (workers_[w].down_at(start_time)) return;  // down: lost
    Peer& peer = peers_[w];
    peer.reply_seq = std::max(peer.reply_seq, m.request);  // it answers the request
    channel_.send({.kind = Message::Kind::kAssignmentAck, .worker = w, .seq = id});
    if (id <= peer.cancelled_seq) return;  // cancelled before it arrived
    if (id <= peer.executed_seq) {
      dedup_hit(w, id);
      return;
    }
    peer.executed_seq = id;
    const auto [end_time, lost] = compute(w, m.range, start_time);
    Assignment& out = ledger_.assignment[w];
    const bool tracked = outstanding(w, id);
    if (tracked) {
      out.delivered = true;
      out.lost = lost;
      out.start_time = start_time;
      out.end_time = end_time;
      if (out.trace_index >= 0) {
        ChunkTraceEntry& entry = result_.run.trace[static_cast<std::size_t>(out.trace_index)];
        entry.start_time = start_time;
        entry.end_time = end_time;
        entry.lost = lost;
      }
    }
    CDSF_LOG_TRACE << "mpi worker " << w << " chunk " << m.range.count << " delivered ["
                   << start_time << ", " << end_time << "]" << (lost ? " LOST" : "");
    if (lost) return;  // the worker dies mid-chunk: no report, ever
    const Engine::EventId compute_done = engine_.schedule_cancellable_at(
        end_time, [this, w, id, start_time, end_time = end_time] {
          if (outstanding(w, id)) ledger_.assignment[w].event = Engine::kNoEvent;
          if (peers_[w].cancelled_seq >= id) return;  // lost the race mid-compute
          channel_.transmit({.kind = Message::Kind::kReport,
                             .worker = w,
                             .seq = id,
                             .start_time = start_time,
                             .end_time = end_time});
        });
    if (tracked) out.event = compute_done;
  }

  // Opens worker w's assignment (a backup of `primary`'s straggler when
  // set), logs it, and arms its timeout and, for a primary that is no
  // canary, its straggler check one latency after the ideal executor's.
  std::uint64_t open(std::size_t w, Range range, std::size_t primary, bool probe,
                     double start_time, double end_time, bool lost, bool delivered) {
    Assignment& out = ledger_.open(w, range, now(), start_time, end_time, lost, probe, primary);
    out.delivered = delivered;
    const std::uint64_t id = out.id;
    const double dispatch_time = out.dispatch_time;
    log(WalRecord::Kind::kAssign, w, id, range.first, range.count);
    arm_detection(w, id, range.count, dispatch_time);
    if (config_.speculation.enabled && primary == kNone && !probe) {
      // The straggler fallback divides by the a-priori weight.
      const double threshold = ledger_.straggler_threshold(
          w, range.count,
          prepared_.input_factor * prepared_.mean_iter /
              std::max(prepared_.params.weights[w], 0.05),
          prepared_.stddev_iter);
      engine_.schedule_at(dispatch_time + messages_.latency + threshold + messages_.latency,
                          [this, w, id] {
                            const std::size_t host = ledger_.flag_straggler(w, id, now());
                            if (host != kNone) {
                              dispatch(host, ledger_.assignment[w].range, 0, false, w);
                            }
                          });
    }
    return id;
  }

  // Hands `range` to worker w. Hardened: the assignment is transmitted;
  // its timings are provisional until it lands. Reliable: it lands one
  // latency later (that latency is the abstract model's scheduling
  // overhead), the work is drawn now, and the report reaches the master
  // one latency after the chunk ends. Both report stages are cancellable,
  // and the assignment's event holds the pending one.
  void dispatch(std::size_t w, Range range, std::uint64_t request, bool probe,
                std::size_t primary) {
    if (hardened_) {
      const std::uint64_t id = open(w, range, primary, probe, now(), now(), false, false);
      channel_.transmit({.kind = Message::Kind::kAssignment,
                         .worker = w,
                         .seq = id,
                         .request = request,
                         .range = range,
                         .epoch = master_epoch_});
      return;
    }
    const double start_time = now() + messages_.latency;
    const auto [end_time, lost] = compute(w, range, start_time);
    const std::uint64_t id = open(w, range, primary, probe, start_time, end_time, lost, true);
    if (lost) return;  // a worker dying mid-chunk never reports
    ledger_.assignment[w].event =
        engine_.schedule_cancellable_at(end_time, [this, w, id, start_time, end_time = end_time] {
          const Engine::EventId report = engine_.schedule_cancellable_at(
              now() + messages_.latency, [this, w, id, start_time, end_time] {
                if (outstanding(w, id)) {
                  accept_report(w);
                } else if (drop_late_report(w, start_time, end_time)) {
                  queue_service(w, 0);
                }
              });
          if (outstanding(w, id)) ledger_.assignment[w].event = report;
        });
  }

  // Hardened: a request copy reaches the master. A duplicate re-triggers
  // the reply (assignment or bench notice), never a second assignment.
  void master_handle_request(std::size_t w, std::uint64_t rseq, bool rejoin) {
    if (master_down_) return;  // lost with the master; the worker retransmits
    if (rejoin) ledger_.down[w] = 0;
    // A request is proof of life: without reinstatement every wrongful
    // death (e.g. an assignment lost in a burst window) would remove a live
    // worker for good, and enough of them strand the run.
    (void)reinstate(w);
    const Assignment& out = ledger_.assignment[w];
    if (out.active && rejoin && out.dispatch_time < workers_[w].recovery_time) {
      // The pre-crash assignment died with the worker.
      reclaim(w);
      queue_service(w, rseq);
      return;
    }
    if (peers_[w].master.service_pending) {
      dedup_hit(w, rseq);  // the queued service answers this copy too
      return;
    }
    if (out.active) {
      // The worker missed the assignment: resend it.
      result_.run.channel.dedup_hits += 1;
      channel_.retransmit({.kind = Message::Kind::kAssignment,
                           .worker = w,
                           .seq = out.id,
                           .request = rseq,
                           .range = out.range,
                           .epoch = master_epoch_});
      return;
    }
    if (ledger_.idle[w]) {
      // The bench notice was lost: resend it. Flight ring only: this dedup
      // hit has never been a lifecycle marker, and listing it would change
      // every traced hardened run. A rejoin after a crash while benched is
      // a fresh request, not a resend, so it is no dedup hit.
      if (!rejoin) {
        result_.run.channel.dedup_hits += 1;
        events_.record(obs::FlightEventKind::kDedupHit, now(), w,
                       static_cast<std::int64_t>(rseq));
      }
      channel_.send({.kind = Message::Kind::kBench, .worker = w, .seq = rseq});
      return;
    }
    queue_service(w, rseq);
  }

  // Hardened: a worker's request (loop kick, rejoin, or post-cancel
  // re-entry), resent until its assignment or bench notice arrives.
  void send_request(std::size_t w, bool rejoin) {
    const std::uint64_t rseq = ++peers_[w].request_seq;
    channel_.transmit(
        {.kind = Message::Kind::kRequest, .worker = w, .seq = rseq, .rejoin = rejoin});
  }

  // The master handles one request at a time. `request` is the hardened
  // request sequence (0 for a master-initiated service, which sends no
  // bench notice). A queued service owns the worker, so it clears an idle
  // mark left from before a crash: a scan that woke the worker again would
  // queue a second service.
  void queue_service(std::size_t w, std::uint64_t request) {
    ledger_.idle[w] = 0;
    const double arrival = now();
    const double service_start = std::max(arrival, master_free_at_);
    const double wait = service_start - arrival;
    MasterStats& master = result_.master;
    master.queue_wait_time += wait;
    master.max_queue_wait = std::max(master.max_queue_wait, wait);
    master_free_at_ = service_start + messages_.master_service_time;
    master.requests_handled += 1;
    master.busy_time += messages_.master_service_time;
    peers_[w].master.service_pending = true;
    engine_.schedule_at(master_free_at_, [this, w, request] { serve(w, request); });
  }

  // Carries out the ledger's grant to worker w.
  void serve(std::size_t w, std::uint64_t request) {
    Peer::Master& peer = peers_[w].master;
    peer.service_pending = false;
    // The master died mid-service, or it declared the worker dead.
    if (master_down_ || ledger_.down[w]) return;
    const bool probe = gray_.armed && peer.probe_pending;
    if (probe) peer.probe_pending = false;
    const ChunkLedger::Grant grant = ledger_.serve(w, now(), probe, crash_mode_ || hardened_);
    switch (grant.kind) {
      case ChunkLedger::Grant::Kind::kChunk:
      case ChunkLedger::Grant::Kind::kBackup:
        dispatch(w, grant.range, request, probe, grant.primary);
        break;
      case ChunkLedger::Grant::Kind::kAudit:
        launch_audit(w, grant.audit);
        break;
      case ChunkLedger::Grant::Kind::kBench:
        // Stops a hardened worker's request retries; a verdict, a canary
        // or a scan brings it back.
        if (hardened_ && request > 0) {
          channel_.send({.kind = Message::Kind::kBench, .worker = w, .seq = request});
        }
        break;
      case ChunkLedger::Grant::Kind::kNothing:
        break;
    }
  }

  // Master restart: rebuilds the volatile state from the write-ahead log.
  // An unacked assignment may never have left the wire: it is reclaimed
  // (if it was delivered, its report is dropped as late). An acked,
  // incomplete one stays outstanding. Logged completions feed the report
  // dedup, so no chunk is recorded twice.
  void restart() {
    const double at = now();
    master_down_ = false;
    master_free_at_ = std::max(master_free_at_, at);
    CheckpointStats& checkpoint = result_.run.checkpoint;
    checkpoint.master_restarts += 1;
    // Before the kick (a crash in the serial phase) or after the loop
    // drained, a restart only logs itself: it must not wake workers.
    const bool loop_open =
        at >= serial_end_ && ledger_.completed < application_.parallel_iterations();
    // The suspicions, the bench list, the straggler queue and the audits
    // in flight or queued died with the old master; the quarantine state
    // is snapshot-durable and survives.
    ledger_.forget();
    gray_.abandon_audits();
    const WalScan scan = scan_wal(result_.run.wal, workers_.size());
    checkpoint.restart_completions_replayed += scan.completions;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      peers_[w].master = {.assign_acked_seq = scan.workers[w].acked,
                          .processed_seq = scan.workers[w].completed};
    }
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const WalMarks& marks = scan.workers[w];
      Assignment& out = ledger_.assignment[w];
      if (marks.assigned > marks.completed && outstanding(w, marks.assigned)) {
        if (marks.assigned <= marks.acked) {
          checkpoint.restart_chunks_preserved += 1;
          out.probes = 0;
          arm_detection(w, marks.assigned, out.range.count, at);
        } else {
          // Not idle: the worker may be computing the reclaimed chunk; its
          // late report or its own request retry brings it back.
          checkpoint.restart_ranges_redispatched += 1;
          reclaim(w);
        }
      } else if (loop_open && !out.active) {
        ledger_.idle[w] = 1;  // nothing in flight by the log: idle and wakeable
      }
    }
    // After reconciliation, whose reclaims list their lost chunks first.
    events_.emit(obs::FlightEventKind::kMasterRestarted, at, obs::kFlightMasterTrack,
                 static_cast<std::int64_t>(master_epoch_));
    log(WalRecord::Kind::kRestart, 0, master_epoch_, 0, 0);
    CDSF_LOG_TRACE << "mpi master restarted at " << at;
    if (loop_open) wake_idle();
  }

  bool timer_done(Progress& p) {
    if (ledger_.completed >= application_.parallel_iterations()) return true;
    if (ledger_.completed == p.last_completed) return ++p.stagnant > 1000;
    p.stagnant = 0;
    p.last_completed = ledger_.completed;
    return false;
  }

  void snapshot_tick() {
    if (timer_done(snapshot_progress_)) return;
    if (!master_down_) {
      log(WalRecord::Kind::kSnapshot, 0, master_epoch_, 0, ledger_.completed);
      result_.run.checkpoint.snapshots += 1;
      events_.emit(obs::FlightEventKind::kCheckpoint, now(), obs::kFlightMasterTrack,
                   static_cast<std::int64_t>(result_.run.wal.size()), ledger_.completed);
    }
    engine_.schedule_after(config_.checkpoint.interval, [this] { snapshot_tick(); });
  }

  // Every probe_interval, each quarantined live worker with nothing in
  // flight gets a master-initiated service carrying one canary chunk.
  void probe_tick() {
    if (timer_done(probe_progress_)) return;
    if (!master_down_) {
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        if (!gray_.health.quarantined(w) || ledger_.down[w] || workers_[w].down_at(now())) {
          continue;
        }
        // A queued service bars a canary only in the hardened protocol: a
        // reliable canary may queue behind a service that benches the worker.
        Peer::Master& peer = peers_[w].master;
        if (ledger_.assignment[w].active || (hardened_ && peer.service_pending) ||
            gray_.auditing[w] != 0 || peer.probe_pending) {
          continue;
        }
        peer.probe_pending = true;
        queue_service(w, 0);
      }
    }
    engine_.schedule_after(config_.quarantine.probe_interval, [this] { probe_tick(); });
  }

  const workload::Application& application_;
  const std::size_t processor_type_;
  const SimConfig& config_;
  const MessageModel messages_;
  PreparedRun& prepared_;
  std::vector<Worker>& workers_;
  MpiRunResult& result_;
  const bool crash_mode_;
  const bool checkpointing_;
  const bool hardened_;
  const bool detection_;  // crash-kind failures or the hardened protocol
  EventWriter events_;    // the flight ring and, with collect_trace, the events
  const double serial_end_;
  Engine engine_;
  GrayPolicy gray_;     // dormant when disarmed
  ChunkLedger ledger_;  // `down` holds the master's verdict (declared dead)
  Channel channel_;
  std::vector<Peer> peers_;
  double master_free_at_ = 0.0;
  bool master_down_ = false;
  // Bumped at every master crash: timers armed by the old incarnation
  // (probes, assignment resends, audit verdicts) carry it and go stale.
  std::uint64_t master_epoch_ = 1;
  Progress snapshot_progress_;
  Progress probe_progress_;
};

void Channel::send(const Message& m) {
  const bool to_worker = m.to_worker();
  const bool ack = m.ack();
  (ack ? stats_.acks_sent : stats_.messages_sent) += 1;
  if (!rng_) {
    engine_.schedule_after(latency_, [this, m] { protocol_.deliver(m); });
    return;
  }
  std::size_t& force = to_worker ? model_.force_drop_to_worker : model_.force_drop_to_master;
  bool dropped = !ack && force > 0;
  bool burst = false;
  if (dropped) {
    force -= 1;
  } else if (bursts_ && bursts_->covers(engine_.now())) {
    dropped = burst = true;
  } else {
    const double p = to_worker ? model_.drop_to_worker : model_.drop_to_master;
    dropped = p > 0.0 && rng_->uniform01() < p;
  }
  if (dropped) {
    stats_.drops += 1;
    if (burst) stats_.burst_drops += 1;
    return;
  }
  const double dup_p = to_worker ? model_.duplicate_to_worker : model_.duplicate_to_master;
  const bool duplicated = dup_p > 0.0 && rng_->uniform01() < dup_p;
  if (duplicated) stats_.duplicates += 1;
  const double reorder_p = to_worker ? model_.reorder_to_worker : model_.reorder_to_master;
  const double corrupt_p = to_worker ? model_.corrupt_to_worker : model_.corrupt_to_master;
  std::size_t& force_corrupt =
      to_worker ? model_.force_corrupt_to_worker : model_.force_corrupt_to_master;
  for (std::size_t copy = 0; copy < (duplicated ? 2U : 1U); ++copy) {
    double delay = latency_;
    if (reorder_p > 0.0 && rng_->uniform01() < reorder_p) {
      stats_.reorders += 1;
      delay += rng_->uniform(0.0, model_.reorder_delay);
    }
    // A corrupted copy travels, fails its checksum at the receiver and is
    // discarded there unprocessed: no ack fires, and the sender's
    // retransmission recovers it. A corrupted report never reaches record().
    bool corrupt = !ack && force_corrupt > 0;
    if (corrupt) {
      force_corrupt -= 1;
    } else {
      corrupt = corrupt_p > 0.0 && rng_->uniform01() < corrupt_p;
    }
    if (corrupt) {
      engine_.schedule_after(delay, [this, w = m.worker, seq = m.seq] {
        stats_.corrupted += 1;
        stats_.corrupt_discarded += 1;
        events_.emit(obs::FlightEventKind::kMessageCorrupted, engine_.now(), w,
                     static_cast<std::int64_t>(seq));
      });
    } else {
      engine_.schedule_after(delay, [this, m] { protocol_.deliver(m); });
    }
  }
}

void Channel::retransmit(const Message& m) {
  stats_.retransmits += 1;
  events_.emit(obs::FlightEventKind::kRetransmit, engine_.now(), m.worker,
               static_cast<std::int64_t>(m.seq));
  protocol_.retransmitted(m);
  send(m);
}

void Channel::resend_after(const Message& m, double rto, std::size_t retries_left) {
  engine_.schedule_after(rto, [this, m, rto, retries_left] {
    if (protocol_.answered(m)) return;
    if (retries_left == 0) {
      stats_.retransmits_abandoned += 1;
      return;
    }
    retransmit(m);
    resend_after(m, rto * model_.rto_backoff, retries_left - 1);
  });
}

}  // namespace
}  // namespace detail

MpiRunResult simulate_loop_mpi(const workload::Application& application,
                               std::size_t processor_type, std::size_t processors,
                               const sysmodel::AvailabilitySpec& availability,
                               const TechniqueFactory& factory, const SimConfig& config,
                               const MessageModel& messages, std::uint64_t seed) {
  if (messages.latency < 0.0 || messages.master_service_time < 0.0) {
    throw std::invalid_argument("simulate_loop_mpi: message costs must be >= 0");
  }
  detail::PreparedRun prepared =
      detail::prepare_run(application, processor_type, processors, availability, config, seed);
  const std::unique_ptr<dls::Technique> technique = factory(prepared.params);
  if (technique == nullptr) {
    throw std::invalid_argument("simulate_loop_mpi: factory returned null");
  }
  technique->reset();
  MpiRunResult result;
  detail::MpiExecutor(application, processor_type, config, messages, seed, prepared, *technique,
                      result)
      .run();
  return result;
}

MpiRunResult simulate_loop_mpi(const workload::Application& application,
                               std::size_t processor_type, std::size_t processors,
                               const sysmodel::AvailabilitySpec& availability,
                               dls::TechniqueId technique, const SimConfig& config,
                               const MessageModel& messages, std::uint64_t seed) {
  return simulate_loop_mpi(
      application, processor_type, processors, availability,
      [technique](const dls::TechniqueParams& params) {
        return dls::make_technique(technique, params);
      },
      config, messages, seed);
}

ReplicationSummary simulate_replicated_mpi(const workload::Application& application,
                                           std::size_t processor_type, std::size_t processors,
                                           const sysmodel::AvailabilitySpec& availability,
                                           dls::TechniqueId technique, const SimConfig& config,
                                           const MessageModel& messages, std::uint64_t seed,
                                           std::size_t replications, double deadline,
                                           std::size_t threads) {
  const auto run_one = [&](std::size_t, const SimConfig& run_config, std::uint64_t run_seed) {
    return simulate_loop_mpi(application, processor_type, processors, availability, technique,
                             run_config, messages, run_seed)
        .run;
  };
  return detail::replicate("simulate_replicated_mpi", config, {seed}, replications, deadline,
                           threads, run_one)
      .front();
}

}  // namespace cdsf::sim
