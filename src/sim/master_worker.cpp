#include "sim/master_worker.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json.hpp"
#include "sim/engine.hpp"
#include "sim/sim_common.hpp"
#include "sim/wal_recovery.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace cdsf::sim {

namespace {

/// Serializes the master's final durable state (snapshot counters plus the
/// full write-ahead log) as schema-tagged JSON.
void write_checkpoint_json(const std::string& path, const RunResult& run) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", "cdsf.master_checkpoint/1");
  doc.set("makespan", run.makespan);
  doc.set("wal_records", run.checkpoint.wal_records);
  doc.set("snapshots", run.checkpoint.snapshots);
  doc.set("master_restarts", run.checkpoint.master_restarts);
  obs::Json wal = obs::Json::array();
  for (const WalRecord& rec : run.wal) {
    obs::Json r = obs::Json::object();
    r.set("kind", wal_kind_name(rec.kind));
    r.set("time", rec.time);
    r.set("worker", rec.worker);
    r.set("seq", rec.seq);
    r.set("first", rec.first);
    r.set("count", rec.count);
    wal.push_back(std::move(r));
  }
  doc.set("wal", std::move(wal));
  std::ofstream out(path);
  if (out) {
    out << doc.dump(2) << '\n';
    out.flush();  // so a full disk fails here, not silently at close
  }
  if (!out) {
    throw std::runtime_error("simulate_loop_mpi: cannot write checkpoint JSON to " + path);
  }
}

}  // namespace

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

  // Every run accounts only ACCEPTED completion reports, so lost,
  // falsely-suspected (late-report), and cancelled-loser chunks never
  // pollute the worker stats or the technique's adaptive weights. A clean
  // channel without checkpointing runs the reliable protocol: every
  // message arrives exactly once, one latency after it is sent. A faulty
  // channel or checkpointing arms the hardened at-least-once protocol
  // instead (a master restart needs the WAL to reconcile against, so a
  // master fault implies checkpointing; and messages arriving at a down
  // master are lost).
  const bool crash_mode = detail::has_crash_failures(config);
  const SimConfig::Failure* master_fault = detail::master_restart_failure(config);
  const bool unreliable = config.channel.faulty();
  const bool checkpointing = config.checkpoint.enabled || master_fault != nullptr;
  const bool hardened = unreliable || checkpointing;
  // The failure detector runs with crash-kind failures or the hardened
  // protocol. The master only ever observes MESSAGES: a dead worker simply
  // stops reporting, so each outstanding chunk carries a timeout; after
  // fault_detection.max_probes expirations (exponential backoff between
  // probes) the worker is declared dead and its chunk re-dispatched. A
  // recovering worker's fresh request also exposes the loss (even with
  // detection disabled), mirroring an MPI reconnect.
  const bool detection = (crash_mode || hardened) && config.fault_detection.enabled;
  const bool speculate = config.speculation.enabled;

  MpiRunResult result;
  // Every happening goes through this writer: the always-on flight
  // recorder (merged into result.run.flight by finish_run; recording never
  // touches the RNG) and, with collect_trace, the lifecycle events.
  detail::EventWriter events(config, processors, result.run);
  // Serial iterations on worker 0 before the parallel loop opens.
  const double serial_end = detail::run_prologue(
      result.run, events, application, config, prepared.input_factor, prepared.mean_iter,
      prepared.stddev_iter, prepared.workers, prepared.run_rng,
      "simulate_loop_mpi: worker 0 crashed during the serial phase — the serial "
      "iterations have no fault tolerance (re-dispatch needs the loop to open)");
  // Crash/recovery instants are known up front (the availability process
  // carries them); the merge sort in finish() interleaves them correctly.
  // Flight ring only: run_prologue already listed them.
  for (std::size_t w = 0; w < processors; ++w) {
    if (!prepared.workers[w].crashes()) continue;
    events.record(obs::FlightEventKind::kWorkerCrashed, prepared.workers[w].crash_time, w);
    if (std::isfinite(prepared.workers[w].recovery_time)) {
      events.record(obs::FlightEventKind::kWorkerRecovered, prepared.workers[w].recovery_time,
                    w);
    }
  }

  Engine engine;
  double master_free_at = 0.0;
  constexpr std::size_t kNone = detail::ChunkLedger::kNone;
  // Per-worker timeout escalation: each proven-false suspicion (a late
  // report from a worker the master declared dead) doubles that worker's
  // timeout scale. Without this, a timeout below the true round trip
  // reclaims EVERY chunk before its report lands — no report is ever
  // accepted and the run livelocks. Doubling converges the timeout above
  // the real round trip within O(log) false suspicions.
  std::vector<double> timeout_scale(processors, 1.0);

  // Gray-failure policy (dormant when disarmed). The slowdown baseline's
  // dispatch cost is one message latency: the assignment's travel, not the
  // report's.
  detail::GrayPolicy gray(config, prepared.workers, seed, prepared.input_factor,
                          messages.latency, result.run, events);
  // The chunk lifecycle; `down` holds the master's verdict (declared dead).
  detail::ChunkLedger ledger(config, application.parallel_iterations(), processors,
                             prepared.input_factor, *technique, result.run, events, gray);
  std::vector<detail::Assignment>& outstanding = ledger.assignment;
  std::vector<std::uint64_t> audit_epoch(processors, 0);
  std::vector<char> probe_pending(processors, 0);  // canary service queued

  // ---- Hardened at-least-once protocol state (dormant otherwise). ----
  const ChannelModel& chan = config.channel;
  // Channel fault draws come from dedicated streams fanned out of the run
  // seed (children 17/19 — prepare_run owns 0 and 100+), so arming the
  // channel never perturbs the work-sampling or availability streams.
  std::optional<util::RngStream> channel_rng;
  std::optional<sysmodel::BurstWindows> bursts;
  if (unreliable) {
    channel_rng.emplace(util::SeedSequence(seed).child(17));
    if (chan.burst_gap_mean > 0.0) {
      bursts.emplace(chan.burst_gap_mean, chan.burst_duration,
                     util::SeedSequence(seed).child(19));
    }
  }
  std::size_t force_drop_to_worker = chan.force_drop_to_worker;
  std::size_t force_drop_to_master = chan.force_drop_to_master;
  std::size_t force_corrupt_to_worker = chan.force_corrupt_to_worker;
  std::size_t force_corrupt_to_master = chan.force_corrupt_to_master;
  // Worker-side protocol memory (survives master restarts).
  std::vector<std::uint64_t> request_seq(processors, 0);   // requests issued
  std::vector<std::uint64_t> reply_seq(processors, 0);     // highest request answered
  std::vector<std::uint64_t> executed_seq(processors, 0);  // assignment dedup
  std::vector<std::uint64_t> cancelled_seq(processors, 0);  // speculation-loser suppression
  std::vector<std::uint64_t> report_acked_seq(processors, 0);
  // Master-side protocol memory (volatile: dies in a master crash and is
  // rebuilt from the WAL at restart).
  std::vector<std::uint64_t> assign_acked_seq(processors, 0);
  std::vector<std::uint64_t> processed_seq(processors, 0);  // report dedup
  // A master service for this worker is enqueued but not yet executed.
  // In that window outstanding[w] is inactive and not idle, so a
  // duplicated/retransmitted request would otherwise enqueue a SECOND
  // service — two overlapping assignments for one worker, the first of
  // which would be silently orphaned (its report drops into the
  // late-report path and its iterations strand).
  std::vector<char> service_pending(processors, 0);
  bool master_down = false;
  // Bumped at every master crash; timers armed by the old incarnation
  // (probes, assignment retransmits) carry their epoch and no-op on
  // mismatch — the crashed process's timers died with it.
  std::uint64_t master_epoch = 1;

  std::function<void(std::size_t, std::uint64_t)> master_receive_request;
  std::function<void(std::size_t, std::uint64_t, std::uint64_t, detail::IterationPool::Range)>
      worker_receive_assignment;
  std::function<void(std::size_t, std::uint64_t, bool)> master_handle_request;
  std::function<void(std::size_t, bool)> worker_send_request;
  std::function<void(std::size_t, detail::IterationPool::Range, std::uint64_t, bool,
                     std::size_t)>
      dispatch_hardened, dispatch_reliable;
  auto& dispatch = hardened ? dispatch_hardened : dispatch_reliable;
  std::function<void()> snapshot_tick;
  std::function<void()> probe_tick;

  // Pulls a reclaimed/returned range back into circulation: benched workers
  // (idle because the pool momentarily drained) get the master's deferred
  // reply now.
  auto wake_idle = [&] { ledger.wake_idle([&](std::size_t v) { master_receive_request(v, 0); }); };

  // Takes worker w's outstanding chunk away from it (it was declared dead
  // or rejoined after a crash) and returns the iterations to the pool
  // unless the sibling copy covers the range.
  auto reclaim_outstanding = [&](std::size_t w) {
    detail::Assignment& out = outstanding[w];
    if (!out.active) return;
    out.active = false;
    events.emit(obs::FlightEventKind::kChunkLost, engine.now(), w, out.range);
    if (out.lost) {
      result.run.faults.chunks_lost += 1;
      const double detect_latency =
          std::max(0.0, engine.now() - prepared.workers[w].crash_time);
      result.run.faults.detection_latency_total += detect_latency;
      result.run.faults.max_detection_latency =
          std::max(result.run.faults.max_detection_latency, detect_latency);
      double wasted = out.start_time - out.dispatch_time;
      if (out.start_time < engine.now()) {
        wasted += prepared.workers[w].availability->work_delivered(out.start_time, engine.now());
      }
      result.run.faults.wasted_work += wasted;
      if (out.backup) result.run.speculation.backups_lost += 1;
    } else {
      // False suspicion (or an undelivered hardened assignment): the range
      // is re-dispatched and any late report will be dropped — a reclaimed
      // backup copy resolves as cancelled (the worker is alive), keeping
      // the launched == won + cancelled + lost identity intact.
      if (out.backup) result.run.speculation.backups_cancelled += 1;
      if (config.collect_trace && out.trace_index >= 0) {
        // Mark the entry so it no longer counts as delivered work (the
        // chaos harness reconstructs exactly-once coverage from the trace).
        result.run.trace[static_cast<std::size_t>(out.trace_index)].cancelled = true;
      }
    }
    if (ledger.reclaim(w)) wake_idle();
  };

  // One timeout expiration for assignment `id` on worker w. Stale probes
  // (the report arrived, the chunk was already reclaimed, or the master
  // that armed the timer crashed) are no-ops.
  std::function<void(std::size_t, std::uint64_t, double, std::uint64_t)> probe_fire =
      [&](std::size_t w, std::uint64_t id, double interval, std::uint64_t epoch) {
        if (epoch != master_epoch) return;  // timer died with the old master
        detail::Assignment& out = outstanding[w];
        if (!out.active || out.id != id) return;
        out.probes += 1;
        events.emit(obs::FlightEventKind::kWorkerSuspected, engine.now(), w,
                    static_cast<std::int64_t>(out.probes));
        if (out.probes >= config.fault_detection.max_probes) {
          ledger.down[w] = 1;
          events.emit(obs::FlightEventKind::kWorkerDeclaredDead, engine.now(), w);
          // An undelivered hardened assignment is a lost MESSAGE, not a
          // suspicion of a live worker mid-report.
          if (!out.lost && out.delivered) result.run.faults.false_suspicions += 1;
          CDSF_LOG_TRACE << "mpi master declares worker " << w << " dead at " << engine.now();
          reclaim_outstanding(w);
          return;
        }
        const double next = interval * config.fault_detection.backoff;
        engine.schedule_at(engine.now() + next, [&probe_fire, w, id, next, epoch] {
          probe_fire(w, id, next, epoch);
        });
      };

  // Arms the first dead-worker timeout for assignment `id` (detection on).
  auto arm_detection = [&](std::size_t w, std::uint64_t id, std::int64_t count,
                           double dispatch_time) {
    if (!detection) return;
    // Expected round trip from the master's a-priori knowledge: the
    // weight seed (observed availability) is all it has — the actual
    // availability path is exactly what it cannot see.
    const double expected_compute = static_cast<double>(count) * prepared.mean_iter *
                                    prepared.input_factor /
                                    std::max(prepared.params.weights[w], 0.05);
    const double timeout = std::max(config.fault_detection.min_timeout,
                                    timeout_scale[w] * config.fault_detection.timeout_factor *
                                        (expected_compute + 2.0 * messages.latency));
    const std::uint64_t epoch = master_epoch;
    engine.schedule_at(dispatch_time + timeout, [&probe_fire, w, id, timeout, epoch] {
      probe_fire(w, id, timeout, epoch);
    });
  };

  // Offers one message to the channel: applies the force-drop test hooks,
  // burst windows, and the per-direction drop / duplicate / reorder /
  // corrupt draws, then schedules `deliver` once per surviving copy. With a
  // clean channel this is exactly one delivery after the base latency.
  // Returns true when at least one copy went on the wire. `w`/`seq`
  // identify the message for the corruption trace only.
  auto channel_send = [&](bool to_worker, bool is_ack, std::size_t w, std::int64_t seq,
                          std::function<void()> deliver) {
    if (is_ack) {
      result.run.channel.acks_sent += 1;
    } else {
      result.run.channel.messages_sent += 1;
    }
    if (!unreliable) {
      engine.schedule_after(messages.latency, std::move(deliver));
      return true;
    }
    bool dropped = false;
    bool burst = false;
    std::size_t& force = to_worker ? force_drop_to_worker : force_drop_to_master;
    if (!is_ack && force > 0) {
      force -= 1;
      dropped = true;
    } else if (bursts && bursts->covers(engine.now())) {
      dropped = true;
      burst = true;
    } else {
      const double p = to_worker ? chan.drop_to_worker : chan.drop_to_master;
      if (p > 0.0 && channel_rng->uniform01() < p) dropped = true;
    }
    if (dropped) {
      result.run.channel.drops += 1;
      if (burst) result.run.channel.burst_drops += 1;
      return false;
    }
    const double dup_p = to_worker ? chan.duplicate_to_worker : chan.duplicate_to_master;
    const bool duplicated = dup_p > 0.0 && channel_rng->uniform01() < dup_p;
    if (duplicated) result.run.channel.duplicates += 1;
    const double reorder_p = to_worker ? chan.reorder_to_worker : chan.reorder_to_master;
    const double corrupt_p = to_worker ? chan.corrupt_to_worker : chan.corrupt_to_master;
    std::size_t& force_corrupt = to_worker ? force_corrupt_to_worker : force_corrupt_to_master;
    const std::size_t copies = duplicated ? 2 : 1;
    for (std::size_t c = 0; c < copies; ++c) {
      double delay = messages.latency;
      if (reorder_p > 0.0 && channel_rng->uniform01() < reorder_p) {
        result.run.channel.reorders += 1;
        delay += channel_rng->uniform(0.0, chan.reorder_delay);
      }
      // Payload corruption: the copy still travels, but its checksum fails
      // at the receiver — the frame is counted and DISCARDED there, never
      // processed, so no ack fires and the sender's retransmission loop
      // recovers it. A corrupted report can therefore never reach record().
      bool corrupt = false;
      if (!is_ack && force_corrupt > 0) {
        force_corrupt -= 1;
        corrupt = true;
      } else if (corrupt_p > 0.0 && channel_rng->uniform01() < corrupt_p) {
        corrupt = true;
      }
      if (corrupt) {
        engine.schedule_after(delay, [&, w, seq] {
          result.run.channel.corrupted += 1;
          result.run.channel.corrupt_discarded += 1;
          events.emit(obs::FlightEventKind::kMessageCorrupted, engine.now(), w, seq);
        });
        continue;
      }
      engine.schedule_after(delay, deliver);
    }
    return true;
  };

  // At-least-once sender: offers the message now and re-offers it with
  // exponential backoff until `resolved()` (the ack/reply arrived) or the
  // retry budget is spent. Master-side senders pass their epoch so pending
  // timers die with a master crash; worker-side senders pass epoch 0 and
  // instead stop when their own worker is down at the retry instant.
  std::function<void(bool, std::size_t, std::int64_t, double, std::size_t, std::uint64_t,
                     std::function<bool()>, std::function<void()>, std::function<void()>)>
      transmit = [&](bool to_worker, std::size_t w, std::int64_t seq, double rto,
                     std::size_t retries_left, std::uint64_t epoch,
                     std::function<bool()> resolved, std::function<void()> on_retransmit,
                     std::function<void()> deliver) {
        channel_send(to_worker, false, w, seq, deliver);
        engine.schedule_after(rto, [&, to_worker, w, seq, rto, retries_left, epoch,
                                    resolved = std::move(resolved),
                                    on_retransmit = std::move(on_retransmit),
                                    deliver = std::move(deliver)] {
          if (epoch != 0 && epoch != master_epoch) return;  // sender died with the master
          if (epoch == 0) {
            const detail::Worker& worker = prepared.workers[w];
            if (worker.crash_time <= engine.now() && engine.now() < worker.recovery_time) {
              return;  // the sending worker is down; its timers died with it
            }
          }
          if (resolved()) return;
          if (retries_left == 0) {
            result.run.channel.retransmits_abandoned += 1;
            return;
          }
          result.run.channel.retransmits += 1;
          events.emit(obs::FlightEventKind::kRetransmit, engine.now(), w, seq);
          if (on_retransmit) on_retransmit();
          transmit(to_worker, w, seq, rto * chan.rto_backoff, retries_left - 1, epoch,
                   std::move(resolved), std::move(on_retransmit), std::move(deliver));
        });
      };

  // Appends one record to the master's write-ahead log (checkpointing only).
  auto wal_append = [&](WalRecord::Kind kind, std::size_t w, std::uint64_t seqno,
                        std::int64_t first, std::int64_t count) {
    if (!checkpointing) return;
    result.run.wal.push_back({kind, engine.now(), w, seqno, first, count});
    result.run.checkpoint.wal_records += 1;
    events.emit(obs::FlightEventKind::kWalAppend, engine.now(), obs::kFlightMasterTrack,
                static_cast<std::int64_t>(seqno), count);
  };

  // Draws the work of `range` on worker w and times it from `start_time`.
  // Physically stranded iff the worker's outage touches the chunk's
  // lifetime: started before (or into) the outage and not finished by the
  // crash. A permanent crash makes the end +infinity, which also lands here.
  struct Compute {
    double end;
    bool lost;
  };
  auto compute = [&](std::size_t w, detail::IterationPool::Range range, double start_time) {
    const detail::Worker& worker = prepared.workers[w];
    const double work = prepared.input_factor *
                        detail::chunk_work(application, processor_type, prepared.mean_iter,
                                           prepared.stddev_iter, config.iteration_cov,
                                           range.first, range.count, *worker.rng);
    const double end_time = worker.availability->finish_time(start_time, work);
    return Compute{end_time, start_time < worker.recovery_time && end_time > worker.crash_time};
  };

  // Hardened protocol: a re-delivered message (sequence `seq`) dropped by
  // sequence dedup.
  auto dedup_hit = [&](std::size_t w, std::uint64_t seq) {
    result.run.channel.dedup_hits += 1;
    events.emit(obs::FlightEventKind::kDedupHit, engine.now(), w, static_cast<std::int64_t>(seq));
  };

  // Re-executes an accepted chunk on independent worker v and compares.
  // The replica is side-channel validation traffic: it never enters the
  // assignment protocol, feeds neither record() nor the coverage
  // accounting, and its worker is simply busy until the verdict reaches
  // the master one latency after completion.
  auto launch_audit = [&](std::size_t v, const detail::GrayPolicy::AuditJob& job) {
    const double dispatch_time = engine.now();
    const double start_time = dispatch_time + messages.latency;
    const Compute c = compute(v, job.range, start_time);
    CDSF_LOG_TRACE << "mpi worker " << v << " audit " << job.range.count << " of worker "
                   << job.origin << " [" << dispatch_time << ", " << c.end << "]"
                   << (c.lost ? " LOST" : "");
    // A worker that crashes mid-replica never delivers the verdict (its
    // rejoin request, if any, re-enters it through the usual path).
    if (!gray.launch_audit(v, job, dispatch_time, start_time, c.end, c.lost)) return;
    const std::uint64_t epoch = ++audit_epoch[v];
    const double end_time = c.end;
    engine.schedule_at(
        end_time + messages.latency, [&, v, job, epoch, dispatch_time, start_time, end_time] {
          if (master_down || audit_epoch[v] != epoch || !gray.auditing[v]) {
            return;  // the verdict died with the master (counted at restart)
          }
          gray.audit_verdict(v, job, start_time, end_time, start_time - dispatch_time,
                             engine.now());
          master_receive_request(v, 0);
        });
  };

  auto master_receive_ack = [&](std::size_t w, std::uint64_t id) {
    if (master_down) return;
    if (id <= assign_acked_seq[w]) return;  // duplicate ack
    assign_acked_seq[w] = id;
    wal_append(WalRecord::Kind::kAck, w, id, 0, 0);
  };

  // The partner of an accepted report lost the race: drop its (pending)
  // report, charge the sunk work, and bring the worker back into the loop.
  // The cancel notice itself is abstracted to the master's instant (in the
  // hardened protocol it also annihilates in-flight report copies via
  // cancelled_seq); the loser's next request pays the message latencies.
  auto cancel_partner = [&](std::size_t v) {
    detail::Assignment& out = outstanding[v];
    out.active = false;
    const double now = engine.now();
    // Sunk so far: the assignment's elapsed travel plus the work delivered.
    double sunk = std::min(messages.latency, std::max(0.0, now - out.dispatch_time));
    const double stop = std::min(now, out.end_time);
    if (out.start_time < stop) {
      sunk += prepared.workers[v].availability->work_delivered(out.start_time, stop);
    }
    if (out.lost) {
      // The losing copy was already stranded by its worker's crash: the
      // winner resolves the race, but the copy is accounted as LOST (as the
      // reclaim path would do), not cancelled — there is no report to
      // cancel, no cancel notice to deliver, and no request to solicit.
      events.lost(v, out.range, out.backup, sunk, now);
      return;
    }
    if (hardened) cancelled_seq[v] = std::max(cancelled_seq[v], out.id);
    engine.cancel(out.event);
    events.cancelled(v, out.range, out.backup, sunk, out.trace_index, now);
    const double receive = now + messages.latency;
    if (!(prepared.workers[v].crash_time <= receive &&
          receive < prepared.workers[v].recovery_time)) {
      if (hardened) {
        engine.schedule_at(receive, [&, v] {
          if (!ledger.down[v]) worker_send_request(v, false);
        });
      } else {
        engine.schedule_at(receive + messages.latency, [&, v] {
          if (!ledger.down[v]) master_receive_request(v, 0);
        });
      }
    }
  };

  // Proof of life from a worker the master declared dead (a late report
  // or a fresh request): reinstate it and double its timeout. Returns true
  // when w had been declared dead.
  auto reinstate = [&](std::size_t w) {
    if (!ledger.down[w]) return false;
    ledger.down[w] = 0;
    timeout_scale[w] *= 2.0;
    events.emit(obs::FlightEventKind::kWorkerReinstated, engine.now(), w);
    return true;
  };

  // A report whose assignment is no longer outstanding (its range was
  // re-dispatched after a false suspicion or a master restart): the result
  // is dropped and its work wasted, but the worker is clearly alive.
  // Returns true when it was reinstated.
  auto drop_late_report = [&](std::size_t w, double start_time, double end_time) {
    result.run.faults.wasted_work +=
        prepared.workers[w].availability->work_delivered(start_time, end_time);
    return reinstate(w);
  };

  // The completion report of worker w's outstanding assignment is
  // accepted: the ledger accounts it and feeds the technique, the WAL logs
  // it, the gray checks run, the losing copy stops, and the worker's next
  // request is served. Corrupted frames never get here (discarded at the
  // checksum layer).
  auto accept_report = [&](std::size_t w) {
    const detail::Assignment& out = outstanding[w];
    ledger.accept(w, out.start_time - out.dispatch_time, engine.now());
    wal_append(WalRecord::Kind::kComplete, w, out.id, out.range.first, out.range.count);
    const detail::ChunkLedger::Settled settled =
        ledger.settle(w, engine.now(), prepared.mean_iter);
    if (settled.auditor != kNone) master_receive_request(settled.auditor, 0);
    if (settled.loser != kNone) cancel_partner(settled.loser);
    master_receive_request(w, 0);
  };

  // Reliable protocol: two-stage report chain for assignment `id` on
  // worker w — computation completes at its end time, the report reaches
  // the master one latency later. Both stages are cancellable so a losing
  // speculated copy can be stopped; out.event always holds the
  // currently-pending stage.
  auto schedule_report = [&](std::size_t w, std::uint64_t id) {
    const double start_time = outstanding[w].start_time;
    const double end_time = outstanding[w].end_time;
    const Engine::EventId first_stage =
        engine.schedule_cancellable_at(end_time, [&, w, id, start_time, end_time] {
          const Engine::EventId second_stage = engine.schedule_cancellable_at(
              engine.now() + messages.latency, [&, w, id, start_time, end_time] {
                const detail::Assignment& out = outstanding[w];
                if (out.active && out.id == id) {
                  accept_report(w);
                } else if (drop_late_report(w, start_time, end_time)) {
                  master_receive_request(w, 0);
                }
              });
          detail::Assignment& out = outstanding[w];
          if (out.active && out.id == id) out.event = second_stage;
        });
    outstanding[w].event = first_stage;
  };

  // Hardened protocol: one completion report arriving at the master. Every
  // copy is acked (the previous ack may have dropped); duplicates are
  // suppressed by sequence dedup so record() is never double-fed.
  auto master_receive_report = [&](std::size_t w, std::uint64_t id, double start_time,
                                   double end_time) {
    if (master_down) return;          // lost with the master; the worker retransmits
    if (cancelled_seq[w] >= id) return;  // cancelled loser: already resolved
    channel_send(true, true, w, static_cast<std::int64_t>(id), [&, w, id] {
      if (id > report_acked_seq[w]) report_acked_seq[w] = id;
    });
    if (id <= processed_seq[w]) {
      dedup_hit(w, id);
      return;
    }
    processed_seq[w] = id;
    if (outstanding[w].active && outstanding[w].id == id) {
      accept_report(w);
      return;
    }
    (void)drop_late_report(w, start_time, end_time);
    // The worker is alive and idle either way — bring it back into the
    // loop (a restart reclaim can orphan a live worker the same way a
    // false suspicion does).
    if (!outstanding[w].active) master_receive_request(w, 0);
  };

  // Hardened protocol: the worker's report retransmits until the master's
  // report-ack lands (or the chunk is cancelled by the speculation race).
  auto worker_send_report = [&](std::size_t w, std::uint64_t id, double start_time,
                                double end_time) {
    transmit(false, w, static_cast<std::int64_t>(id), chan.rto, chan.max_retransmits, 0,
             [&, w, id] { return report_acked_seq[w] >= id || cancelled_seq[w] >= id; },
             nullptr, [&, w, id, start_time, end_time] {
               master_receive_report(w, id, start_time, end_time);
             });
  };

  // Hardened protocol: one assignment delivery at the worker. The work draw
  // happens HERE (computation starts at first delivery); every delivery is
  // acked, and a re-delivered assignment is never executed twice.
  worker_receive_assignment = [&](std::size_t w, std::uint64_t id, std::uint64_t rseq,
                                  detail::IterationPool::Range range) {
    const detail::Worker& worker = prepared.workers[w];
    const double now = engine.now();
    if (worker.crash_time <= now && now < worker.recovery_time) return;  // down: lost
    if (rseq > reply_seq[w]) reply_seq[w] = rseq;  // the assignment answers the request
    channel_send(false, true, w, static_cast<std::int64_t>(id),
                 [&, w, id] { master_receive_ack(w, id); });
    if (id <= cancelled_seq[w]) return;  // cancelled before it arrived
    if (id <= executed_seq[w]) {
      dedup_hit(w, id);
      return;
    }
    executed_seq[w] = id;
    const double start_time = now;
    const auto [end_time, lost] = compute(w, range, start_time);
    detail::Assignment& out = outstanding[w];
    const bool tracked = out.active && out.id == id;
    if (tracked) {
      out.delivered = true;
      out.lost = lost;
      out.start_time = start_time;
      out.end_time = end_time;
      if (out.trace_index >= 0) {
        ChunkTraceEntry& entry = result.run.trace[static_cast<std::size_t>(out.trace_index)];
        entry.start_time = start_time;
        entry.end_time = end_time;
        entry.lost = lost;
      }
    }
    CDSF_LOG_TRACE << "mpi worker " << w << " chunk " << range.count << " delivered ["
                   << start_time << ", " << end_time << "]" << (lost ? " LOST" : "");
    if (lost) return;  // the worker dies mid-chunk: no report, ever
    const Engine::EventId compute_done = engine.schedule_cancellable_at(
        end_time, [&, w, id, start_time, end_time = end_time] {
          detail::Assignment& cur = outstanding[w];
          if (cur.active && cur.id == id) cur.event = Engine::kNoEvent;
          if (cancelled_seq[w] >= id) return;  // lost the race mid-compute
          worker_send_report(w, id, start_time, end_time);
        });
    if (tracked) out.event = compute_done;
  };

  // Opens worker w's assignment of `range` at the master (both
  // protocols) in the ledger — a backup of worker `primary`'s straggler
  // when set — logs it to the WAL when checkpointing, and arms its
  // dead-worker timeout and, for a primary that is not a canary, its
  // straggler check one latency after the ideal executor's. Returns the
  // assignment sequence number.
  auto open_assignment = [&](std::size_t w, detail::IterationPool::Range range,
                             std::size_t primary, bool probe, double start_time,
                             double end_time, bool lost, bool delivered) {
    detail::Assignment& out =
        ledger.open(w, range, engine.now(), start_time, end_time, lost, probe, primary);
    out.delivered = delivered;
    const std::uint64_t id = out.id;
    const double dispatch_time = out.dispatch_time;
    wal_append(WalRecord::Kind::kAssign, w, id, range.first, range.count);
    arm_detection(w, id, range.count, dispatch_time);
    if (speculate && primary == kNone && !probe) {
      // The straggler fallback divides by the a-priori weight.
      const double threshold = ledger.straggler_threshold(
          w, range.count,
          prepared.input_factor * prepared.mean_iter / std::max(prepared.params.weights[w], 0.05),
          prepared.stddev_iter);
      engine.schedule_at(dispatch_time + messages.latency + threshold + messages.latency,
                         [&, w, id] {
                           const std::size_t host = ledger.flag_straggler(w, id, engine.now());
                           if (host != kNone) dispatch(host, outstanding[w].range, 0, false, w);
                         });
    }
    return id;
  };

  // Hardened dispatch: the assignment is logged to the WAL, travels through
  // the unreliable channel, and retransmits with backoff until the worker's
  // ack lands. Its timings are provisional until the delivery lands.
  dispatch_hardened = [&](std::size_t w, detail::IterationPool::Range range,
                          std::uint64_t rseq, bool probe, std::size_t primary) {
    const double dispatch_time = engine.now();
    const std::uint64_t id = open_assignment(w, range, primary, probe, dispatch_time,
                                             dispatch_time, false, false);
    transmit(true, w, static_cast<std::int64_t>(id), chan.rto, chan.max_retransmits,
             master_epoch,
             [&, w, id] {
               return assign_acked_seq[w] >= id || !outstanding[w].active ||
                      outstanding[w].id != id;
             },
             [&, w, id] {
               if (config.collect_trace && outstanding[w].active &&
                   outstanding[w].id == id && outstanding[w].trace_index >= 0) {
                 result.run.trace[static_cast<std::size_t>(outstanding[w].trace_index)]
                     .retransmitted = true;
               }
             },
             [&, w, id, rseq, range] { worker_receive_assignment(w, id, rseq, range); });
  };

  // Reliable dispatch: the assignment reaches the worker one latency later
  // and computation starts on arrival (the scheduling_overhead of the
  // abstract model is this message latency, so it is NOT charged again).
  // The work is drawn at dispatch.
  dispatch_reliable = [&](std::size_t w, detail::IterationPool::Range range,
                          std::uint64_t /*rseq*/, bool probe, std::size_t primary) {
    const double start_time = engine.now() + messages.latency;
    const auto [end_time, lost] = compute(w, range, start_time);
    const std::uint64_t id =
        open_assignment(w, range, primary, probe, start_time, end_time, lost, true);
    if (!lost) schedule_report(w, id);  // a worker dying mid-chunk never reports
  };

  // Hardened protocol: notify a requesting worker that the pool is empty
  // (so its request retries stop). Delivered best-effort; a lost notice is
  // re-sent when the retried request arrives.
  auto send_bench = [&](std::size_t w, std::uint64_t rseq) {
    channel_send(true, false, w, static_cast<std::int64_t>(rseq), [&, w, rseq] {
      const detail::Worker& worker = prepared.workers[w];
      const double now = engine.now();
      if (worker.crash_time <= now && now < worker.recovery_time) return;
      if (rseq > reply_seq[w]) reply_seq[w] = rseq;
    });
  };

  // Hardened protocol: request arrival at the master. At-least-once
  // delivery means the same request (sequence rseq) can arrive several
  // times; a duplicate must re-trigger the REPLY (assignment or bench
  // notice), never a second assignment.
  master_handle_request = [&](std::size_t w, std::uint64_t rseq, bool rejoin) {
    if (master_down) return;  // lost with the master; the worker retransmits
    if (rejoin) ledger.down[w] = 0;
    // A request is proof of life: the worker outlived its declared death
    // (its assignment was lost on the channel — e.g. in a burst window —
    // and the expired timeout was charged to the worker). Without the
    // reinstatement every wrongful death permanently removes a live worker,
    // and enough of them strand the run.
    (void)reinstate(w);
    detail::Assignment& out = outstanding[w];
    if (out.active && rejoin &&
        out.dispatch_time < prepared.workers[w].recovery_time) {
      // The rejoin request reveals that the pre-crash assignment died with
      // the worker (even when timeout detection is off).
      reclaim_outstanding(w);
      master_receive_request(w, rseq);
      return;
    }
    if (service_pending[w]) {
      // The previous copy of this request is already queued for service;
      // the assignment it produces will answer this sequence too.
      dedup_hit(w, rseq);
      return;
    }
    if (out.active) {
      // Duplicate or retransmitted request while an assignment is in
      // flight: the worker clearly missed the reply — resend it instead of
      // double-assigning.
      result.run.channel.dedup_hits += 1;
      result.run.channel.retransmits += 1;
      events.emit(obs::FlightEventKind::kRetransmit, engine.now(), w,
                  static_cast<std::int64_t>(out.id));
      if (config.collect_trace && out.trace_index >= 0) {
        result.run.trace[static_cast<std::size_t>(out.trace_index)].retransmitted = true;
      }
      const std::uint64_t id = out.id;
      const detail::IterationPool::Range range = out.range;
      channel_send(true, false, w, static_cast<std::int64_t>(id),
                   [&, w, id, rseq, range] { worker_receive_assignment(w, id, rseq, range); });
      return;
    }
    if (ledger.idle[w]) {
      // Benched worker re-requesting: the bench notice was lost — resend.
      // Flight ring only: this dedup hit has never been a lifecycle marker,
      // and listing it now would change every traced hardened run.
      result.run.channel.dedup_hits += 1;
      events.record(obs::FlightEventKind::kDedupHit, engine.now(), w,
                    static_cast<std::int64_t>(rseq));
      send_bench(w, rseq);
      return;
    }
    master_receive_request(w, rseq);
  };

  // Hardened protocol: a worker-initiated request (loop kick, rejoin, or
  // post-cancel re-entry) with its own retransmission loop — resolved by
  // the assignment or bench notice that answers it.
  worker_send_request = [&](std::size_t w, bool rejoin) {
    const std::uint64_t rseq = ++request_seq[w];
    transmit(false, w, static_cast<std::int64_t>(rseq), chan.rto, chan.max_retransmits, 0,
             [&, w, rseq] { return reply_seq[w] >= rseq; }, nullptr,
             [&, w, rseq, rejoin] { master_handle_request(w, rseq, rejoin); });
  };

  // The master serializes request handling; each handled request either
  // assigns a chunk (reply travels back with one latency) or retires the
  // worker. Completion reports carry the technique feedback. `rseq` is the
  // hardened protocol's request sequence (0 for master-initiated service,
  // which sends no bench notice).
  master_receive_request = [&](std::size_t w, std::uint64_t rseq) {
    const double arrival = engine.now();
    const double service_start = std::max(arrival, master_free_at);
    const double wait = service_start - arrival;
    result.master.queue_wait_time += wait;
    result.master.max_queue_wait = std::max(result.master.max_queue_wait, wait);
    master_free_at = service_start + messages.master_service_time;
    result.master.requests_handled += 1;
    result.master.busy_time += messages.master_service_time;
    if (hardened) service_pending[w] = 1;

    engine.schedule_at(master_free_at, [&, w, rseq] {
      service_pending[w] = 0;
      // The master died mid-service, or it declared the worker dead.
      if (master_down || ledger.down[w]) return;
      const bool probe = gray.armed && probe_pending[w] != 0;
      if (probe) probe_pending[w] = 0;
      const detail::ChunkLedger::Grant grant =
          ledger.serve(w, engine.now(), probe, crash_mode || hardened);
      switch (grant.kind) {
        case detail::ChunkLedger::Grant::Kind::kChunk:
        case detail::ChunkLedger::Grant::Kind::kBackup:
          dispatch(w, grant.range, rseq, probe, grant.primary);
          break;
        case detail::ChunkLedger::Grant::Kind::kAudit:
          launch_audit(w, grant.audit);
          break;
        case detail::ChunkLedger::Grant::Kind::kBench:
          // Stops a hardened worker's request retries; a verdict, a canary
          // or a scan brings it back.
          if (hardened && rseq > 0) send_bench(w, rseq);
          break;
        case detail::ChunkLedger::Grant::Kind::kNothing:
          break;
      }
    });
  };

  // Master restart: rebuild the coordinator's volatile state from the
  // write-ahead log. Assignments without an ack may never have left the
  // wire — reclaim and re-dispatch them; acked-but-incomplete assignments
  // stay outstanding (their reports are still good); completions are
  // replayed into the dedup table so a finished chunk is never re-recorded.
  auto master_restart = [&] {
    const double now = engine.now();
    master_down = false;
    master_free_at = std::max(master_free_at, now);
    result.run.checkpoint.master_restarts += 1;
    // A restart before the loop kicked off (crash inside the serial phase)
    // has nothing to reconcile and must NOT wake workers — the parallel
    // loop opens at serial_end, not at the master's recovery. A restart
    // after the loop drained likewise only logs itself.
    const bool loop_open =
        now >= serial_end && ledger.completed < application.parallel_iterations();
    // Suspicions, timeout escalation, the bench list and the straggler queue
    // died with the old master.
    ledger.forget();
    std::fill(timeout_scale.begin(), timeout_scale.end(), 1.0);
    std::fill(service_pending.begin(), service_pending.end(), 0);
    // In-flight audit replicas and queued audit jobs died with the master
    // (the verdict table is volatile); their workers re-enter through the
    // restart wake below or their own requests. Queued jobs were never
    // dispatched, so only the in-flight replicas count as abandoned. The
    // health/quarantine state itself is snapshot-durable and survives the
    // restart.
    gray.abandon_audits();
    std::fill(probe_pending.begin(), probe_pending.end(), 0);
    std::vector<std::uint64_t> last_assign(processors, 0);
    std::vector<std::uint64_t> last_ack(processors, 0);
    std::vector<std::uint64_t> last_complete(processors, 0);
    for (const WalRecord& rec : result.run.wal) {
      switch (rec.kind) {
        case WalRecord::Kind::kAssign:
          last_assign[rec.worker] = std::max(last_assign[rec.worker], rec.seq);
          break;
        case WalRecord::Kind::kAck:
          last_ack[rec.worker] = std::max(last_ack[rec.worker], rec.seq);
          break;
        case WalRecord::Kind::kComplete:
          last_complete[rec.worker] = std::max(last_complete[rec.worker], rec.seq);
          result.run.checkpoint.restart_completions_replayed += 1;
          break;
        case WalRecord::Kind::kSnapshot:
        case WalRecord::Kind::kRestart:
          break;
      }
    }
    for (std::size_t w = 0; w < processors; ++w) {
      processed_seq[w] = last_complete[w];  // never re-record a completed chunk
      assign_acked_seq[w] = last_ack[w];
      detail::Assignment& out = outstanding[w];
      const std::uint64_t seq = last_assign[w];
      if (seq == 0 || seq <= last_complete[w]) {
        // Nothing in flight for this worker according to the log: treat it
        // as idle and wakeable (the bench list did not survive).
        if (loop_open && !out.active) ledger.idle[w] = 1;
      } else if (seq <= last_ack[w]) {
        // Acked but incomplete: the worker is still computing; keep the
        // assignment outstanding and re-arm detection from the restart.
        if (out.active && out.id == seq) {
          result.run.checkpoint.restart_chunks_preserved += 1;
          out.probes = 0;
          arm_detection(w, seq, out.range.count, now);
        } else if (loop_open && !out.active) {
          ledger.idle[w] = 1;  // e.g. a speculation loser cancelled pre-crash
        }
      } else {
        // Assigned but never acked: the assignment may never have reached
        // the worker — reclaim and re-dispatch. If it WAS delivered (the
        // ack was lost), the worker's eventual report hits the late-report
        // path: dropped, exactly-once preserved.
        if (out.active && out.id == seq) {
          result.run.checkpoint.restart_ranges_redispatched += 1;
          reclaim_outstanding(w);
          // NOT idle: the worker may be computing the reclaimed chunk; its
          // late report (or its own request retry) re-enters it.
        } else if (loop_open && !out.active) {
          ledger.idle[w] = 1;
        }
      }
    }
    // Recorded once reconciliation is done: its reclaims list their lost
    // chunks first, and it records nothing on the master track.
    events.emit(obs::FlightEventKind::kMasterRestarted, now, obs::kFlightMasterTrack,
                static_cast<std::int64_t>(master_epoch));
    wal_append(WalRecord::Kind::kRestart, 0, master_epoch, 0, 0);
    CDSF_LOG_TRACE << "mpi master restarted at " << now;
    if (loop_open) wake_idle();
  };

  // The periodic timers stop once the loop completed (so the event queue
  // can drain) or after a long stretch of ticks without progress (a
  // stranded run must reach the post-run diagnostics, not the event cap).
  struct Progress {
    std::int64_t last_completed = -1;
    std::size_t stagnant = 0;
  };
  auto timer_done = [&](Progress& p) {
    if (ledger.completed >= application.parallel_iterations()) return true;
    if (ledger.completed == p.last_completed) return ++p.stagnant > 1000;
    p.stagnant = 0;
    p.last_completed = ledger.completed;
    return false;
  };

  // Periodic checkpoint snapshots.
  Progress snapshot_progress;
  snapshot_tick = [&] {
    if (timer_done(snapshot_progress)) return;
    if (!master_down) {
      wal_append(WalRecord::Kind::kSnapshot, 0, master_epoch, 0, ledger.completed);
      result.run.checkpoint.snapshots += 1;
      events.emit(obs::FlightEventKind::kCheckpoint, engine.now(), obs::kFlightMasterTrack,
                  static_cast<std::int64_t>(result.run.wal.size()), ledger.completed);
    }
    engine.schedule_after(config.checkpoint.interval, snapshot_tick);
  };

  // Canary-probe timer (see loop_executor.cpp): every probe_interval, each
  // quarantined live worker with nothing in flight gets one master-initiated
  // service carrying real pool work, flagged as a probe.
  Progress probe_progress;
  probe_tick = [&] {
    if (timer_done(probe_progress)) return;
    if (!master_down) {
      for (std::size_t w = 0; w < processors; ++w) {
        if (!gray.health.quarantined(w) || ledger.down[w]) continue;
        const detail::Worker& worker = prepared.workers[w];
        if (worker.crash_time <= engine.now() && engine.now() < worker.recovery_time) {
          continue;  // physically down; the canary would be wasted
        }
        if (outstanding[w].active || service_pending[w] != 0 || gray.auditing[w] != 0 ||
            probe_pending[w] != 0) {
          continue;
        }
        probe_pending[w] = 1;
        ledger.idle[w] = 0;  // a restart may have benched it as idle; the probe owns it now
        master_receive_request(w, 0);
      }
    }
    engine.schedule_after(config.quarantine.probe_interval, probe_tick);
  };

  if (application.parallel_iterations() > 0) {
    engine.schedule_at(serial_end, [&] {
      // Every worker's initial request reaches the master one latency in;
      // workers already down at the kick never send one (their recovery
      // request, if any, is their first contact).
      for (std::size_t w = 0; w < processors; ++w) {
        const detail::Worker& worker = prepared.workers[w];
        if (worker.crash_time <= serial_end && serial_end < worker.recovery_time) continue;
        if (hardened) {
          worker_send_request(w, false);
        } else {
          engine.schedule_after(messages.latency, [&, w] { master_receive_request(w, 0); });
        }
      }
    });
    for (std::size_t w = 0; w < processors; ++w) {
      const detail::Worker& worker = prepared.workers[w];
      if (!worker.crashes() || !std::isfinite(worker.recovery_time)) continue;
      // An outage fully inside the serial phase is invisible to the loop:
      // the worker is alive at the kick and its initial request covers it —
      // a rejoin request here would be a duplicate entry into the loop,
      // overwriting the worker's outstanding chunk and stranding it.
      if (worker.recovery_time <= serial_end) continue;
      // The rejoining worker's request reaches the master one latency after
      // recovery (or after the loop opens); it also reveals that the old
      // chunk died with the worker, even when timeout detection is off.
      if (hardened) {
        engine.schedule_at(std::max(worker.recovery_time, serial_end),
                           [&, w] { worker_send_request(w, true); });
      } else {
        const double rejoin = std::max(worker.recovery_time, serial_end) + messages.latency;
        engine.schedule_at(rejoin, [&, w] {
          ledger.down[w] = 0;
          reclaim_outstanding(w);
          master_receive_request(w, 0);
        });
      }
    }
    if (master_fault != nullptr) {
      engine.schedule_at(master_fault->time, [&] {
        master_down = true;
        master_epoch += 1;  // every pending master-side timer is now stale
        events.emit(obs::FlightEventKind::kMasterCrashed, engine.now(), obs::kFlightMasterTrack);
        CDSF_LOG_TRACE << "mpi master crashed at " << engine.now();
      });
      engine.schedule_at(master_fault->recovery_time, [&] { master_restart(); });
    }
    if (checkpointing) {
      engine.schedule_at(serial_end + config.checkpoint.interval, snapshot_tick);
    }
    if (gray.armed) {
      engine.schedule_at(serial_end + config.quarantine.probe_interval, probe_tick);
    }
    engine.run();
  }

  detail::finish_run(result.run, config, events, gray, engine.now(),
                     application.parallel_iterations() - ledger.completed, "simulate_loop_mpi",
                     " iterations stranded by crashes (fault detection disabled or no "
                     "surviving worker to re-dispatch to)");
  if (checkpointing && !config.checkpoint.json_path.empty()) {
    write_checkpoint_json(config.checkpoint.json_path, result.run);
  }
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
  return detail::replicate(
      "simulate_replicated_mpi", config, seed, replications, deadline, threads,
      [&](const SimConfig& run_config, std::uint64_t run_seed) {
        return simulate_loop_mpi(application, processor_type, processors, availability,
                                 technique, run_config, messages, run_seed)
            .run;
      });
}

}  // namespace cdsf::sim
