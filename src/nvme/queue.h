// NVMe-style submission/completion queues over a PCIe link model.
//
// The host side has exactly one entry point, QueuePair::Submit(): it DMAs
// a batch of commands onto the SQ behind one doorbell and returns their
// reply states without waiting for execution (a batch of one is the
// single-command case). Data movement in both directions is charged to
// the PCIe link; the device side services commands by popping the
// submission channels — exactly the client-library / device-server split
// the paper describes (§VI: "the translation and sending of the requests
// take place in userspace and completely bypass the host OS kernel").
//
// Two layers:
//
//   QueuePair — one SQ/CQ pair, always a member of a QueueSet (it borrows
//       the set's PCIe link). Doorbell batching: one Submit() of K
//       commands pays `request_latency` once instead of K times.
//   QueueSet  — N pairs multiplexed over one PCIe link plus the device-side
//       arbitration point: NextCommand() serves all pairs round-robin (or
//       weighted), so no queue can starve while another is full.
//
// Completion delivery (ReplyState): Complete() routes the completed state
// onto the submitter's CQ ring (a channel), where a per-client reactor
// coroutine reaps it — one parked reactor per client instead of one parked
// awaiter per command. Submitters without a ring (queue-level tests) await
// the state's `done` event instead.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nvme/command.h"
#include "sim/resources.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace kvcsd::nvme {

struct PcieConfig {
  double bytes_per_sec = 12e9;          // Gen3 x16 effective
  Tick request_latency = Microseconds(5);   // doorbell + DMA setup
  Tick completion_latency = Microseconds(5);
};

// Device-side service order across the pairs of a QueueSet.
enum class Arbitration : std::uint8_t {
  kRoundRobin = 0,  // one command per non-empty queue, rotating
  kWeighted = 1,    // up to weights[i] consecutive commands from queue i
};

struct QueueSetConfig {
  PcieConfig pcie;
  // Prefixes the PCIe bandwidth/meter names ("pcie.h2d", "pcie.d2h") and
  // the set's trace tracks ("nvme", "nvme.cq"). Multi-device simulations
  // give each set a shard prefix ("shard0.") so link utilization and
  // completion spans attribute per device; empty keeps legacy names.
  std::string name_prefix;
  std::uint32_t num_queues = 1;
  // Max commands submitted-and-uncompleted per pair; 0 = unbounded.
  // Submitters block (before the submission DMA) until a slot frees.
  std::uint32_t sq_depth_cap = 0;
  Arbitration arbitration = Arbitration::kRoundRobin;
  // kWeighted service quanta, one per queue; missing/zero entries count
  // as 1. Ignored under kRoundRobin.
  std::vector<std::uint32_t> weights;
};

class QueuePair;
class QueueSet;

// Shared completion slot for one in-flight command. The submitter holds a
// reference (directly or through a client-level future), the in-flight
// Incoming holds another until the device completes it.
struct ReplyState {
  explicit ReplyState(sim::Simulation* sim) : done(sim) {}

  sim::Event done;
  Completion completion;
  bool completed = false;
  // Causal identity, for reactors that record latency/tracing on reap.
  std::uint64_t cmd_id = 0;
  Opcode opcode = Opcode::kKvStore;
  Tick submit_begin = 0;     // host-side stamp (command.submit_tick)
  std::uint32_t queue_id = 0;
  // When set, completion is delivered by pushing this state onto the ring
  // (the reaper calls done.Set()). When null, Complete() sets `done`
  // directly.
  sim::Channel<std::shared_ptr<ReplyState>>* cq_ring = nullptr;
};

using CqRing = sim::Channel<std::shared_ptr<ReplyState>>;

class QueuePair {
 public:
  // Host side, the only submission path: rings one doorbell for the whole
  // batch, so the per-command `request_latency` (doorbell + DMA setup) is
  // paid once instead of `commands.size()` times; the byte service time is
  // unchanged. Returns once every command is on the SQ, one reply state
  // per command in order. Completion is pushed to `ring` when non-null
  // (reactor reaping), otherwise signalled via each state's `done` event.
  // With a depth cap the batch is split into cap-sized chunks (each chunk
  // still amortizes within itself).
  sim::Task<std::vector<std::shared_ptr<ReplyState>>> Submit(
      std::vector<Command> commands, CqRing* ring = nullptr);

  // Device side: one submitted command plus its completion route.
  struct Incoming {
    Command command;
    std::shared_ptr<ReplyState> reply;
    // Causal id / opcode copies that outlive moves of `command`, plus the
    // SQ enqueue and dequeue ticks for queue-wait attribution.
    std::uint64_t cmd_id = 0;
    Opcode opcode = Opcode::kKvStore;
    std::uint32_t queue_id = 0;
    Tick enqueue_tick = 0;
    Tick dequeue_tick = 0;
  };

  // Device-side completion path (charged to the PCIe link). Devices pop
  // commands through QueueSet::NextCommand(), which arbitrates the pairs.
  sim::Task<void> Complete(Incoming incoming, Completion completion);

  // Submitted-but-not-yet-popped commands (the SQ depth gauge).
  std::size_t sq_depth() const { return submissions_.size(); }
  // Submitted, completion not yet posted.
  std::uint64_t inflight() const { return submitted_ - completed_; }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t completed() const { return completed_; }

  std::uint32_t id() const { return id_; }
  sim::Simulation* sim() const { return sim_; }

 private:
  friend class QueueSet;

  // Built by the owning set: uses its PCIe link and depth-cap policy.
  QueuePair(sim::Simulation* sim, QueueSet* set, std::uint32_t id);

  // Enqueues one DMA-delivered command onto the SQ (no suspension). An
  // unstamped command counts as prepared at its chunk's `doorbell` tick.
  void Enqueue(Command command, Tick doorbell,
               std::shared_ptr<ReplyState> state);
  std::optional<Incoming> TryTake() { return submissions_.TryPop(); }

  sim::Simulation* sim_;
  QueueSet* set_;
  std::uint32_t id_;
  // Trace track names ("nvme", "nvme.cq"), carrying the owning set's
  // name_prefix so per-device spans stay separable in multi-device sims.
  std::string trk_nvme_;
  std::string trk_nvme_cq_;
  // Depth cap (null = unbounded). Acquired per command before the
  // submission DMA, released when its completion has DMA'd back.
  std::unique_ptr<sim::Semaphore> depth_slots_;
  sim::Channel<Incoming> submissions_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
};

// N SQ/CQ pairs sharing one PCIe link, plus the device-side arbitration
// point. Hosts submit to a specific pair (pair(i)->Submit(...)); the device
// services all pairs through NextCommand() under the configured policy.
class QueueSet {
 public:
  QueueSet(sim::Simulation* sim, const QueueSetConfig& config);
  // Single-queue convenience, used by fixtures that predate multi-queue.
  QueueSet(sim::Simulation* sim, const PcieConfig& pcie)
      : QueueSet(sim, MakeSingleQueueConfig(pcie)) {}

  std::uint32_t num_queues() const {
    return static_cast<std::uint32_t>(pairs_.size());
  }
  QueuePair* pair(std::uint32_t id) { return pairs_[id].get(); }
  const QueuePair* pair(std::uint32_t id) const { return pairs_[id].get(); }

  // Device side: the next command across ALL pairs, in arbitration order.
  // Round-robin serves one command per non-empty queue in rotation;
  // weighted serves up to weights[i] consecutive commands from queue i
  // before moving on. Either way a non-empty queue is never skipped
  // indefinitely — a full competing queue cannot starve its neighbors.
  sim::Task<QueuePair::Incoming> NextCommand();

  // Routes the completion back through the pair the command arrived on.
  sim::Task<void> Complete(QueuePair::Incoming incoming,
                           Completion completion) {
    return pairs_[incoming.queue_id]->Complete(std::move(incoming),
                                               std::move(completion));
  }

  // Aggregates across pairs (the device-level gauges).
  std::size_t sq_depth() const;
  std::uint64_t inflight() const;
  std::uint64_t submitted() const;
  std::uint64_t completed() const;
  std::uint64_t host_to_device_bytes() const {
    return host_to_device_.total_bytes();
  }
  std::uint64_t device_to_host_bytes() const {
    return device_to_host_.total_bytes();
  }

  // Per-activity windowed occupancy of the shared PCIe link, one meter per
  // direction (link-equivalents: 1.0 = direction saturated for the window).
  const sim::ResourceMeter& h2d_meter() const { return h2d_meter_; }
  const sim::ResourceMeter& d2h_meter() const { return d2h_meter_; }

  const QueueSetConfig& config() const { return config_; }
  sim::Simulation* sim() const { return sim_; }

 private:
  friend class QueuePair;

  static QueueSetConfig MakeSingleQueueConfig(const PcieConfig& pcie) {
    QueueSetConfig config;
    config.pcie = pcie;
    return config;
  }

  // Called by a pair on every SQ push: one work token per queued command.
  void NotifyWork() { work_.Release(); }
  std::uint32_t WeightOf(std::uint32_t queue) const {
    if (queue < config_.weights.size() && config_.weights[queue] > 0) {
      return config_.weights[queue];
    }
    return 1;
  }

  sim::Simulation* sim_;
  QueueSetConfig config_;
  sim::BandwidthResource host_to_device_;
  sim::BandwidthResource device_to_host_;
  sim::ResourceMeter h2d_meter_;
  sim::ResourceMeter d2h_meter_;
  std::vector<std::unique_ptr<QueuePair>> pairs_;
  // Counts queued-but-unserved commands across all pairs; NextCommand()
  // acquires one token per command so it only scans when work exists.
  sim::Semaphore work_;
  std::uint32_t arb_cursor_ = 0;   // next queue to consider
  std::uint32_t arb_credits_ = 0;  // remaining quantum at arb_cursor_
};

}  // namespace kvcsd::nvme
