#include "kvcsd/device.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/coding.h"
#include "kvcsd/wire.h"
#include "sim/fault.h"
#include "sim/simulation.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// Opcodes whose handlers run with a resolved, pinned keyspace. Everything
// else reaching Dispatch's default branch is unknown and must fail
// Unimplemented before any keyspace-id lookup can turn it into NotFound.
bool IsKeyspaceScoped(nvme::Opcode op) {
  switch (op) {
    case nvme::Opcode::kKvStore:
    case nvme::Opcode::kKvDelete:
    case nvme::Opcode::kBulkStore:
    case nvme::Opcode::kCompact:
    case nvme::Opcode::kCompactWithIndexes:
    case nvme::Opcode::kSync:
    case nvme::Opcode::kCompactWait:
    case nvme::Opcode::kSecondaryBuild:
    case nvme::Opcode::kKvRetrieve:
    case nvme::Opcode::kQueryPrimaryRange:
    case nvme::Opcode::kQuerySecondaryRange:
    case nvme::Opcode::kKvSelect:
    case nvme::Opcode::kKvAggregate:
    case nvme::Opcode::kKeyspaceStat:
      return true;
    default:
      return false;
  }
}

// Mutations of a keyspace in these states go to the delta index.
bool DeltaMode(const Keyspace& ks) {
  return ks.state == KeyspaceState::kCompacted ||
         ks.state == KeyspaceState::kRecompacting;
}

}  // namespace

DeviceConfig Device::Prefixed(DeviceConfig config) {
  // One prefix knob for the whole device: push it down to the SSD so the
  // NAND meter and zns.<tag>.* counters carry it too.
  config.zns.stats_prefix = config.stats_prefix;
  return config;
}

Device::Device(sim::Simulation* sim, const DeviceConfig& config,
               nvme::QueueSet* queues)
    : sim_(sim),
      config_(Prefixed(config)),
      stats_view_(&sim->stats(), config_.stats_prefix),
      trk_device_(config_.stats_prefix + "device"),
      trk_nvme_sq_(config_.stats_prefix + "nvme.sq"),
      trk_compaction_(config_.stats_prefix + "compaction"),
      trk_query_(config_.stats_prefix + "query"),
      trk_recovery_(config_.stats_prefix + "recovery"),
      queues_(queues),
      ssd_(sim, config_.zns),
      zone_manager_(&ssd_, config_.zones),
      keyspace_manager_(&ssd_, &zone_manager_),
      cpu_(sim, config_.stats_prefix + "soc", config_.soc_cores),
      index_cache_(config_.EffectiveIndexCacheBytes()),
      faults_(config_.zns.faults),
      dispatch_meter_(sim, config_.stats_prefix + "dispatch", 1.0) {
  if (faults_ != nullptr) faults_->set_flight_recorder(&sim_->flight());
  // Key "<prefix>device" on purpose: a Device::Restart over the same
  // simulation re-registers and supersedes the powered-off device's gauges.
  telemetry_token_ = sim_->telemetry().AddSource(
      config_.stats_prefix + "device",
      [this](sim::TelemetrySampler::Gauges* out) { CollectTelemetry(out); });
}

Device::~Device() { sim_->telemetry().RemoveSource(telemetry_token_); }

void Device::CollectTelemetry(sim::TelemetrySampler::Gauges* out) const {
  // Gauge names carry the instance prefix (empty in single-device sims,
  // "shard<i>." in fleets); the utilization meters below self-prefix via
  // the names they were constructed with.
  const std::string& p = config_.stats_prefix;
  out->emplace_back(p + "nvme.sq_depth", queues_->sq_depth());
  out->emplace_back(p + "nvme.inflight", queues_->inflight());
  if (queues_->num_queues() > 1) {
    // Per-queue gauges so multi-queue runs can see imbalance; single-queue
    // runs keep the exact legacy gauge set.
    for (std::uint32_t q = 0; q < queues_->num_queues(); ++q) {
      const std::string prefix = p + "nvme.q" + std::to_string(q) + ".";
      out->emplace_back(prefix + "sq_depth", queues_->pair(q)->sq_depth());
      out->emplace_back(prefix + "inflight", queues_->pair(q)->inflight());
    }
  }
  out->emplace_back(p + "device.inflight_cmds", inflight_commands_);
  out->emplace_back(p + "device.compactions_running", compactions_running_);
  out->emplace_back(p + "device.compact.bytes_read",
                    compaction_stats_.bytes_read);
  out->emplace_back(p + "device.compact.bytes_written",
                    compaction_stats_.bytes_written);
  out->emplace_back(p + "device.read_cache.bytes", index_cache_.charge());
  out->emplace_back(p + "device.read_cache.entries", index_cache_.entries());
  out->emplace_back(p + "zns.free_zones", zone_manager_.free_zones());
  // Per-role zone utilization, one pass over the live cluster table.
  struct RoleUsage {
    std::uint64_t zones = 0;
    std::uint64_t bytes = 0;
  };
  std::map<ZoneType, RoleUsage> by_role;
  for (const auto& [id, type] : zone_manager_.LiveClusters()) {
    RoleUsage& usage = by_role[type];
    usage.zones += zone_manager_.cluster_zones(id).size();
    usage.bytes += zone_manager_.ClusterBytes(id);
  }
  for (const auto& [type, usage] : by_role) {
    const std::string role = ZoneTypeName(type);
    out->emplace_back(p + "zns." + role + ".zones", usage.zones);
    out->emplace_back(p + "zns." + role + ".bytes", usage.bytes);
  }
  std::uint64_t delta_index_bytes_total = 0;
  for (const auto& [id, ks] : keyspace_manager_.all()) {
    const std::string prefix = p + "device.ks." + ks->name + ".";
    out->emplace_back(prefix + "state",
                      static_cast<std::uint64_t>(ks->state));
    out->emplace_back(prefix + "num_kvs", ks->num_kvs);
    out->emplace_back(prefix + "klog_bytes",
                      ks->sealed_klog_bytes + ks->klog_bytes);
    out->emplace_back(prefix + "vlog_bytes",
                      ks->sealed_vlog_bytes + ks->vlog_bytes);
    auto rt = runtimes_.find(id);
    out->emplace_back(prefix + "buffer_bytes",
                      rt == runtimes_.end() ? 0 : rt->second.buffer.bytes);
    out->emplace_back(prefix + "delta_entries", ks->delta_index.size());
    out->emplace_back(prefix + "delta_live", ks->delta_live);
    out->emplace_back(prefix + "delta_index_bytes", ks->delta_index_bytes);
    delta_index_bytes_total += ks->delta_index_bytes;
  }
  // Aggregate DRAM footprint of every keyspace's delta index — the series
  // the delta_fold_watermark_bytes knob bounds (DESIGN.md §12).
  out->emplace_back(p + "device.delta.index_bytes", delta_index_bytes_total);
  // Windowed utilization by activity class (DESIGN.md §14): who is burning
  // the SoC cores, the NAND channels, the PCIe link, and the dispatch core
  // right now. Permille-of-window gauges, see ResourceMeter::AppendGauges.
  cpu_.meter().AppendGauges(out);
  dispatch_meter_.AppendGauges(out);
  ssd_.nand().meter().AppendGauges(out);
  queues_->h2d_meter().AppendGauges(out);
  queues_->d2h_meter().AppendGauges(out);
  // Every flight-recorder dump so far. The ring is the simulation's, so
  // each shard of a fleet reports the same fleet-wide count.
  out->emplace_back(p + "device.flight.trips", sim_->flight().trips());
  // Failed background compactions and folds (ReportBackgroundFailure).
  out->emplace_back(p + "device.background.failures",
                    stats().counter_value("device.background.failures"));
}

// ---------------------------------------------------------------------------
// In-band telemetry (DESIGN.md §14)
// ---------------------------------------------------------------------------

nvme::HealthPage Device::BuildHealthPage() const {
  nvme::HealthPage page;
  page.tick = sim_->Now();
  CollectTelemetry(&page.gauges);
  return page;
}

nvme::StatsPage Device::BuildStatsPage() const {
  nvme::StatsPage page;
  page.tick = sim_->Now();
  // Device-owned series only: the host can already see its own client.*
  // numbers, and pulling them back over the wire would just be noise.
  // device.stage.* histograms are excluded because the pull command itself
  // records into them mid-dispatch — with them, a page could never equal a
  // same-tick host snapshot, and the acceptance test depends on exactly
  // that equality.
  // Names in the page are device-local (prefix stripped): the host decodes
  // the same series whether the device runs alone or as shard N of a fleet.
  const std::string dev = config_.stats_prefix + "device.";
  const std::string stage = config_.stats_prefix + "device.stage.";
  const std::size_t strip = config_.stats_prefix.size();
  for (const auto& [name, counter] : stats_view_.base().counters()) {
    if (name.rfind(dev, 0) == 0) {
      page.counters.emplace_back(name.substr(strip), counter.value());
    }
  }
  for (const auto& [name, hist] : stats_view_.base().histograms()) {
    if (name.rfind(dev, 0) == 0 && name.rfind(stage, 0) != 0) {
      page.histograms.emplace_back(name.substr(strip), hist.Summary());
    }
  }
  return page;
}

std::string Device::HealthJson() const {
  const nvme::HealthPage page = BuildHealthPage();
  std::string json = "{\n  \"tick\": " + std::to_string(page.tick);
  json += ",\n  \"gauges\": {";
  bool first = true;
  for (const auto& [name, value] : page.gauges) {
    if (!first) json += ",";
    first = false;
    json += "\n    \"";
    sim::AppendJsonEscaped(&json, name);  // may embed host keyspace names
    json += "\": ";
    json += std::to_string(value);
  }
  if (!first) json += "\n  ";
  json += "}\n}\n";
  return json;
}

void Device::Start() {
  if (started_) return;
  started_ = true;
  sim_->Spawn(MainLoop());
}

std::unique_ptr<Device> Device::Restart(sim::Simulation* sim,
                                        const DeviceConfig& config,
                                        nvme::QueueSet* queues,
                                        const Device& prior) {
  // Clear the crashed flag (and stale crash hooks/error rules) BEFORE the
  // new device constructs its ZnsSsd, which re-registers a torn-tail hook
  // bound to the new object.
  if (config.zns.faults != nullptr) config.zns.faults->ResetForRestart();
  auto device = std::make_unique<Device>(sim, config, queues);
  device->ssd_.CloneStateFrom(prior.ssd_);
  return device;
}

sim::Task<Status> Device::RecoverMetadata() {
  auto recovered = co_await keyspace_manager_.Recover();
  co_return recovered.status();
}

bool Device::CrashPoint(const char* point) {
  return faults_ != nullptr && faults_->Hit(point);
}

sim::StatsView& Device::stats() { return stats_view_; }
const sim::StatsView& Device::stats() const { return stats_view_; }

Device::KeyspaceRuntime::KeyspaceRuntime(sim::Simulation* sim)
    : write_lock(sim, 1),
      flush_slots(sim, kMaxInflightFlushes),
      flush_inflight(sim),
      job_done(sim),
      readers_idle(sim),
      commit_gate(sim) {
  job_done.Set();     // no job running yet
  commit_gate.Set();  // open until a fold commits
}

Device::KeyspaceRuntime& Device::Runtime(const Keyspace* ks) {
  return runtimes_.try_emplace(ks->id, sim_).first->second;
}

sim::Task<void> Device::MainLoop() {
  for (;;) {
    nvme::QueuePair::Incoming incoming = co_await queues_->NextCommand();
    incoming.dequeue_tick = sim_->Now();
    sim_->stats()
        .histogram("client.stage.queue_wait_ns")
        .Record(incoming.dequeue_tick - incoming.enqueue_tick);
    if (sim_->tracer().enabled() && incoming.cmd_id != 0) {
      sim_->tracer().CompleteSpan(
          sim_->tracer().Track(trk_nvme_sq_), "queue_wait",
          incoming.enqueue_tick,
          incoming.dequeue_tick,
          {{"cmd_id", std::to_string(incoming.cmd_id)},
           {"op", nvme::OpcodeName(incoming.opcode)},
           {"q", std::to_string(incoming.queue_id)}});
    }
    // Every command pays the SPDK-ish userspace dispatch cost once.
    // Metered as wall time on a capacity-1 "dispatch" resource: the single
    // main loop is the serial bottleneck (ROADMAP item 1), and the meter
    // includes any wait for a free SoC core, so util.dispatch.dispatch
    // pins near 1000 permille exactly when command pop rate saturates.
    const Tick dispatch_begin = sim_->Now();
    co_await cpu_.Compute(config_.costs.syscall_overhead,
                          sim::Activity::kDispatch);
    dispatch_meter_.Add(sim::Activity::kDispatch,
                        sim_->Now() - dispatch_begin);
    sim_->Spawn(HandleCommand(std::move(incoming)));
  }
}

sim::Task<void> Device::HandleCommand(nvme::QueuePair::Incoming incoming) {
  if (faults_ != nullptr && faults_->crashed()) {
    // Power is gone: fail fast without touching device state. Still close
    // the command's flow so the trace has no dangling arrows.
    if (sim_->tracer().enabled() && incoming.cmd_id != 0) {
      const std::uint32_t track = sim_->tracer().Track(trk_device_);
      const Tick now = sim_->Now();
      sim_->tracer().CompleteSpan(
          track, "powered_off", now, now,
          {{"cmd_id", std::to_string(incoming.cmd_id)}});
      sim_->tracer().FlowEnd(track, "cmd", incoming.cmd_id, now);
    }
    nvme::Completion dead;
    dead.status = Status::IoError("device powered off");
    co_await queues_->Complete(std::move(incoming), std::move(dead));
    co_return;
  }
  const nvme::Opcode op = incoming.command.opcode;
  const Tick begin = sim_->Now();
  stats()
      .histogram("device.stage.dispatch_ns")
      .Record(begin - incoming.dequeue_tick);
  ++inflight_commands_;
  nvme::Completion completion;
  {
    // Span covers the device-side processing; the completion DMA below is
    // on the nvme track. The flow arrow from the client's submit span
    // terminates here ("bp":"e" binds it to this enclosing span).
    sim::TraceSpan span(sim_, trk_device_, nvme::OpcodeName(op));
    span.Arg("cmd_id", incoming.cmd_id);
    span.Arg("keyspace_id", incoming.command.keyspace_id);
    if (sim_->tracer().enabled() && incoming.cmd_id != 0) {
      sim_->tracer().FlowEnd(sim_->tracer().Track(trk_device_), "cmd",
                             incoming.cmd_id, begin);
    }
    completion = co_await Dispatch(incoming.command);
  }
  stats().histogram("device.stage.exec_ns").Record(sim_->Now() - begin);
  --inflight_commands_;
  stats()
      .counter(std::string("device.cmd.") + nvme::OpcodeName(op))
      .Increment();
  if (const char* cls = nvme::OpcodeLatencyClass(op)) {
    stats()
        .histogram(std::string("device.cmd.") + cls + "_ns")
        .Record(sim_->Now() - begin);
  }
  if (!completion.status.ok()) {
    stats().counter("device.cmd.errors").Increment();
    // Per-opcode error breakdown alongside the aggregate, so a workload
    // can tell rejected deletes from failed compactions at a glance.
    stats()
        .counter(std::string("device.cmd.") + nvme::OpcodeName(op) + ".errors")
        .Increment();
  }
  if (faults_ != nullptr && faults_->crashed()) {
    // The power cut landed mid-command; whatever Dispatch claims, the
    // host must treat the operation as failed.
    completion = nvme::Completion{};
    completion.status = Status::IoError("device powered off (in flight)");
  }
  // Flight recorder: one summary per completed command, recorded before
  // the completion DMA so a breach dump never misses its own trigger.
  sim::FlightRecorder::Command summary;
  summary.cmd_id = incoming.cmd_id;
  summary.op = nvme::OpcodeName(op);
  summary.queue_id = incoming.queue_id;
  summary.queue_wait_ns = incoming.dequeue_tick - incoming.enqueue_tick;
  summary.dispatch_ns = begin - incoming.dequeue_tick;
  summary.exec_ns = sim_->Now() - begin;
  summary.status = completion.status.code();
  sim_->flight().RecordCommand(summary);
  co_await queues_->Complete(std::move(incoming), std::move(completion));
}

sim::Task<nvme::Completion> Device::Dispatch(nvme::Command& cmd) {
  nvme::Completion out;
  switch (cmd.opcode) {
    case nvme::Opcode::kKeyspaceCreate: {
      auto ks = keyspace_manager_.Create(cmd.name);
      if (!ks.ok()) {
        out.status = ks.status();
        break;
      }
      out.keyspace_id = (*ks)->id;
      out.status = co_await keyspace_manager_.Persist();
      break;
    }
    case nvme::Opcode::kKeyspaceOpen: {
      auto ks = keyspace_manager_.Find(cmd.name);
      if (!ks.ok()) {
        out.status = ks.status();
        break;
      }
      out.keyspace_id = (*ks)->id;
      break;
    }
    case nvme::Opcode::kKeyspaceDrop: {
      auto ks = keyspace_manager_.Find(cmd.name);
      if (!ks.ok()) {
        out.status = ks.status();
        break;
      }
      out.status = co_await DropKeyspace(*ks);
      break;
    }
    case nvme::Opcode::kGetLogPage: {
      // Admin pull of a device log page (DESIGN.md §14). Encoded inline at
      // the current tick, so every value in the page is from one instant —
      // a host-side Stats snapshot taken at the same tick decodes equal.
      co_await cpu_.Compute(config_.costs.kv_op_fixed);
      switch (cmd.log_page) {
        case nvme::LogPageId::kHealth:
          out.value = nvme::EncodeHealthPage(BuildHealthPage());
          break;
        case nvme::LogPageId::kStats:
          out.value = nvme::EncodeStatsPage(BuildStatsPage());
          break;
        default:
          out.status = Status::InvalidArgument(
              "unknown log page " +
              std::to_string(static_cast<unsigned>(cmd.log_page)));
          break;
      }
      break;
    }
    default: {
      if (!IsKeyspaceScoped(cmd.opcode)) {
        // Unknown opcode: Unimplemented must win over whatever a
        // keyspace-id lookup would report (no silent OK, no NotFound
        // masking).
        out.status = Status::Unimplemented(
            "unhandled opcode " +
            std::to_string(static_cast<unsigned>(cmd.opcode)));
        break;
      }
      // Keyspace-scoped command: resolve and pin the keyspace BEFORE the
      // first suspension, so a concurrent drop defers until the handler
      // coroutine is done with the raw pointer.
      auto ks = keyspace_manager_.FindById(cmd.keyspace_id);
      if (!ks.ok()) {
        out.status = ks.status();
        break;
      }
      Keyspace* keyspace = *ks;
      ++keyspace->inflight;
      const Tick ks_begin = sim_->Now();
      out = co_await DispatchKeyspaceCommand(cmd, keyspace);
      // Record while still pinned: the name is safe to read until Unpin
      // lets a deferred drop free the keyspace.
      if (const char* cls = nvme::OpcodeLatencyClass(cmd.opcode)) {
        stats()
            .histogram("device.ks." + keyspace->name + "." + cls + "_ns")
            .Record(sim_->Now() - ks_begin);
      }
      co_await Unpin(keyspace);
      break;
    }
  }
  co_return out;
}

sim::Task<nvme::Completion> Device::DispatchKeyspaceCommand(nvme::Command& cmd,
                                                            Keyspace* ks) {
  nvme::Completion out;
  switch (cmd.opcode) {
    case nvme::Opcode::kKvStore:
      out.status = co_await DoPut(ks, std::move(cmd.key),
                                  std::move(cmd.value));
      break;
    case nvme::Opcode::kKvDelete:
      out.status = co_await DoDelete(ks, std::move(cmd.key));
      break;
    case nvme::Opcode::kBulkStore:
      out.status = co_await DoBulkPut(ks, cmd.value);
      break;
    case nvme::Opcode::kCompact:
    case nvme::Opcode::kCompactWithIndexes:
      out.status = Status::Ok();
      if (cmd.opcode == nvme::Opcode::kCompact &&
          ks->state == KeyspaceState::kCompacted) {
        // Re-compaction: fold the delta log into the existing sorted run
        // incrementally (DESIGN.md §12) instead of re-sorting everything.
        // No delta: nothing to fold. A job still running here — an index
        // build, or a compaction or fold in its commit window (the state
        // already reads COMPACTED) — must not get a fold beside it.
        if (!Runtime(ks).job_done.is_set()) {
          out.status = Status::FailedPrecondition(
              "a keyspace job is still running; wait for it first");
        } else if (!ks->delta_index.empty()) {
          LaunchJob(ks, JobKind::kFold, {}, cmd.cmd_id);
        }
      } else if (ks->state == KeyspaceState::kWritable ||
                 ks->state == KeyspaceState::kEmpty) {
        // The fused variant also builds the requested secondary indexes
        // in the same pass (§V future work).
        LaunchJob(ks, JobKind::kCompaction,
                  cmd.opcode == nvme::Opcode::kCompactWithIndexes
                      ? std::move(cmd.sidx_list)
                      : std::vector<nvme::SecondaryIndexSpec>{},
                  cmd.cmd_id);
      } else {
        out.status = Status::FailedPrecondition(
            "compaction requires a WRITABLE keyspace (state " +
            std::string(KeyspaceStateName(ks->state)) + ")");
      }
      break;
    case nvme::Opcode::kSync:
      out.status = co_await DoSync(ks);
      break;
    case nvme::Opcode::kCompactWait: {
      // Waits out the whole job, a failed one's rollback included.
      sim::Event& done = Runtime(ks).job_done;
      while (!done.is_set()) co_await done.Wait();
      out.status = ks->last_compaction;
      break;
    }
    case nvme::Opcode::kSecondaryBuild:
      // The build is a keyspace job; the command answers once it is over.
      if (ks->state != KeyspaceState::kCompacted) {
        out.status = Status::FailedPrecondition(
            "secondary indexes attach to COMPACTED keyspaces only");
      } else if (cmd.sidx.name.empty()) {
        out.status = Status::InvalidArgument("secondary index needs a name");
      } else if (ks->run.secondary_indexes.contains(cmd.sidx.name)) {
        out.status =
            Status::AlreadyExists("secondary index exists: " + cmd.sidx.name);
      } else if (!Runtime(ks).job_done.is_set()) {
        out.status = Status::FailedPrecondition(
            "a keyspace job is still running; wait for it first");
      } else {
        LaunchJob(ks, JobKind::kIndexBuild, {cmd.sidx});
        co_await Runtime(ks).job_done.Wait();
        out.status = ks->last_compaction;
      }
      break;
    case nvme::Opcode::kKvRetrieve: {
      auto value = co_await QueryPoint(ks, cmd.key);
      out.status = value.status();
      if (value.ok()) out.value = std::move(*value);
      break;
    }
    case nvme::Opcode::kQueryPrimaryRange:
    case nvme::Opcode::kQuerySecondaryRange: {
      // The rows leave the device here: the one place they become strings.
      RangeRows scanned;
      out.status = co_await QueryRange(
          ks,
          cmd.opcode == nvme::Opcode::kQuerySecondaryRange ? &cmd.sidx.name
                                                           : nullptr,
          cmd.key, cmd.key_end, cmd.limit, &scanned);
      if (out.status.ok()) {
        out.results.reserve(scanned.rows.size());
        for (const auto& [pkey, value] : scanned.rows) {
          out.results.emplace_back(pkey.ToString(), value.ToString());
        }
      }
      out.count = out.results.size();
      break;
    }
    case nvme::Opcode::kKvSelect:
    case nvme::Opcode::kKvAggregate:
      out.status = co_await QueryPushdown(ks, cmd, &out);
      break;
    case nvme::Opcode::kKeyspaceStat:
      out.count = ks->num_kvs;
      out.value = std::string(KeyspaceStateName(ks->state));
      out.status = Status::Ok();
      break;
    default:
      // Unreachable: Dispatch only routes IsKeyspaceScoped opcodes here.
      // Still no silent OK if the two ever fall out of step.
      out.status = Status::Unimplemented(
          "unhandled opcode " +
          std::to_string(static_cast<unsigned>(cmd.opcode)));
      break;
  }
  co_return out;
}

sim::Task<void> Device::Unpin(Keyspace* ks) {
  if (--ks->inflight > 0 || !ks->pending_delete) co_return;
  // The last pin of a keyspace with a deferred drop: run the drop. Clear
  // the flag before the first await so concurrent callers cannot
  // double-drop.
  ks->pending_delete = false;
  // FinishDrop frees *ks; name the keyspace from a copy.
  const std::string what = "deferred drop of keyspace '" + ks->name + "'";
  Status s = co_await FinishDrop(ks);
  WarnDiscarded(what, s);
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

sim::Task<Result<std::uint64_t>> Device::AppendToChain(
    std::vector<ClusterId>* chain, ZoneType type,
    std::span<const std::byte> data, sim::Activity act,
    std::vector<ClusterId>* scratch) {
  if (!chain->empty()) {
    auto addr = co_await zone_manager_.Append(chain->back(), data, act);
    if (addr.ok() || addr.status().code() != StatusCode::kOutOfSpace) {
      co_return addr;
    }
  }
  auto cluster = zone_manager_.AllocateCluster(type);
  if (!cluster.ok()) co_return cluster.status();
  chain->push_back(*cluster);
  if (scratch != nullptr) scratch->push_back(*cluster);
  co_return co_await zone_manager_.Append(*cluster, data, act);
}

Status Device::CheckMutable(Keyspace* ks) const {
  switch (ks->state) {
    case KeyspaceState::kEmpty:
    case KeyspaceState::kWritable:
      return Status::Ok();
    case KeyspaceState::kCompacted:
    case KeyspaceState::kRecompacting: {
      // Delta mode. A running fold — RECOMPACTING, or COMPACTED in its
      // commit window — sealed the generation it folds, so writes land in
      // the live one and nothing the commit or a rollback does touches
      // them. Both generations share delta_index, so a write bounces only
      // at its DRAM bound: twice the fold watermark. Looked up without
      // creating: a keyspace with no runtime has never run a job.
      const std::uint64_t bound = 2 * config_.delta_fold_watermark_bytes;
      if (bound != 0 && ks->delta_index_bytes >= bound) {
        if (auto rt = runtimes_.find(ks->id);
            rt != runtimes_.end() && !rt->second.job_done.is_set()) {
          return Status::Busy("delta index at its bound during a fold; retry");
        }
      }
      return Status::Ok();
    }
    case KeyspaceState::kCompacting:
      // The compactor owns the logs right now; the host retries once the
      // keyspace settles (kBusy is retryable, unlike the old blanket
      // FailedPrecondition).
      return Status::Busy("keyspace is compacting; retry");
  }
  return Status::FailedPrecondition("keyspace not writable");
}

void Device::ApplyDeltaMutation(Keyspace* ks, const std::string& key,
                                std::string value, std::uint64_t seq,
                                bool tombstone) {
  DeltaEntry& entry = ks->delta_index[key];
  if (entry.seq == 0) {
    // Fresh key: charge the node, the key bytes, and the value below.
    ks->delta_index_bytes += kDeltaEntryOverhead + key.size();
  } else {
    // Overwrite: node + key stay, the old inline value is released.
    ks->delta_index_bytes -= entry.value.size();
  }
  ks->delta_index_bytes += value.size();
  if (entry.seq != 0 && !entry.tombstone) --ks->delta_live;
  entry.seq = seq;
  entry.tombstone = tombstone;
  entry.vaddr = 0;
  entry.vlen = static_cast<std::uint32_t>(value.size());
  entry.has_value = !tombstone;
  entry.value = std::move(value);
  if (!tombstone) ++ks->delta_live;
  // Estimate: run overwrites double-count and run deletes don't subtract
  // (telling them apart needs an index lookup); re-compaction restores the
  // exact count. Recovery's delta replay computes the same value.
  ks->num_kvs = ks->run.entries + ks->delta_live;
}

// The self-triggered counterpart of kCompact-on-COMPACTED: once the delta
// index crosses the configured watermark, fold it back into the sorted run
// so the DRAM it occupies stays bounded no matter how long the host defers
// an explicit re-compaction. Called after the write lock is released (the
// fold re-acquires it); a no-op while a fold or drop is already pending.
// The job check matters in a fold's commit window: the state already
// reads COMPACTED there, and a write admitted in it must not start a
// second fold beside the committing one.
void Device::MaybeRequestDeltaFold(Keyspace* ks) {
  if (config_.delta_fold_watermark_bytes == 0) return;
  if (ks->state != KeyspaceState::kCompacted) return;
  if (!Runtime(ks).job_done.is_set()) return;
  if (ks->pending_delete || ks->delta_index.empty()) return;
  if (ks->delta_index_bytes < config_.delta_fold_watermark_bytes) return;
  stats().counter("device.delta.watermark_folds").Increment();
  sim_->flight().Info(trk_device_,
                      "delta watermark: keyspace '" + ks->name +
                          "' index at " +
                          std::to_string(ks->delta_index_bytes) + " B >= " +
                          std::to_string(config_.delta_fold_watermark_bytes) +
                          " B, folding");
  // A failed fold rolls back to COMPACTED and is retried at the next
  // crossing; kCompactWait reports it.
  LaunchJob(ks, JobKind::kFold);
}

sim::Task<Status> Device::DrainWrites(Keyspace* ks, bool keep_lock) {
  KeyspaceRuntime& rt = Runtime(ks);
  co_await rt.write_lock.Acquire();
  Status s = co_await FlushBuffer(ks);
  if (!keep_lock || !s.ok()) rt.write_lock.Release();
  KVCSD_CO_RETURN_IF_ERROR(s);
  co_await rt.flush_inflight.Wait();
  // Surface the flush failure once, then clear it: FlushIo re-queued the
  // failed batch into the write buffer, so the next drain re-flushes the
  // data for real instead of failing forever on a stale latched error
  // (or, worse, persisting an empty buffer).
  s = std::exchange(rt.flush_error, Status::Ok());
  if (keep_lock && !s.ok()) rt.write_lock.Release();
  co_return s;
}

// ---------------------------------------------------------------------------
// Keyspace jobs: compaction, delta fold, secondary-index build
// ---------------------------------------------------------------------------

void Device::LaunchJob(Keyspace* ks, JobKind job,
                       std::vector<nvme::SecondaryIndexSpec> specs,
                       std::uint64_t trigger_cmd_id) {
  if (job == JobKind::kCompaction) ks->state = KeyspaceState::kCompacting;
  if (job == JobKind::kFold) ks->state = KeyspaceState::kRecompacting;
  // The job pins the keyspace until its very end (RunJob's Unpin), so a
  // drop defers behind it even after the state has moved on.
  ++ks->inflight;
  Runtime(ks).job_done.Reset();
  if (sim_->tracer().enabled() && trigger_cmd_id != 0) {
    // Second flow hop: from the command's exec span to the job span.
    sim_->tracer().FlowBegin(sim_->tracer().Track(trk_device_), "compact",
                             trigger_cmd_id, sim_->Now());
  }
  sim_->Spawn(RunJob(ks, job, std::move(specs), trigger_cmd_id));
}

sim::Task<void> Device::RunJob(Keyspace* ks, JobKind job,
                               std::vector<nvme::SecondaryIndexSpec> specs,
                               std::uint64_t trigger_cmd_id) {
  static constexpr const char* kSpan[] = {"compact", "recompact",
                                          "sidx_build"};
  static constexpr const char* kWhat[] = {"compaction", "fold",
                                          "index build"};
  const auto kind = static_cast<std::size_t>(job);
  sim::TraceSpan span(sim_, trk_compaction_, kSpan[kind]);
  span.Arg("keyspace", ks->name);
  if (job == JobKind::kFold) {
    span.Arg("delta_keys", static_cast<std::uint64_t>(ks->delta_index.size()));
  } else {
    span.Arg("fused_indexes", static_cast<std::uint64_t>(specs.size()));
  }
  if (trigger_cmd_id != 0) {
    span.Arg("trigger_cmd_id", trigger_cmd_id);
    if (sim_->tracer().enabled()) {
      // Closes the flow LaunchJob opened: the viewer draws client submit
      // -> device exec -> this job.
      sim_->tracer().FlowEnd(sim_->tracer().Track(trk_compaction_), "compact",
                             trigger_cmd_id, sim_->Now());
    }
  }
  ++compactions_running_;
  std::vector<ClusterId> scratch;
  Status result = Status::Ok();
  switch (job) {
    case JobKind::kCompaction:
      result = co_await RunCompaction(ks, std::move(specs), &scratch);
      break;
    case JobKind::kFold:
      result = co_await RunRecompaction(ks, &scratch);
      break;
    case JobKind::kIndexBuild:
      result = co_await BuildSecondaryIndex(ks, specs.front(), &scratch);
      break;
  }
  --compactions_running_;
  if (!result.ok()) {
    co_await ReleaseClustersBestEffort(std::move(scratch));
    // The sealed generation goes back in front of the live one (a no-op
    // for a job that sealed nothing). The delta index never dropped an
    // entry, so nothing else rolls back.
    ks->klog_clusters.insert(ks->klog_clusters.begin(),
                             ks->sealed_klog_clusters.begin(),
                             ks->sealed_klog_clusters.end());
    ks->vlog_clusters.insert(ks->vlog_clusters.begin(),
                             ks->sealed_vlog_clusters.begin(),
                             ks->sealed_vlog_clusters.end());
    ks->sealed_klog_clusters.clear();
    ks->sealed_vlog_clusters.clear();
    ks->klog_bytes += std::exchange(ks->sealed_klog_bytes, 0);
    ks->vlog_bytes += std::exchange(ks->sealed_vlog_bytes, 0);
    if (ks->state == KeyspaceState::kRecompacting) {
      ks->state = KeyspaceState::kCompacted;  // delta still pending
    } else if (ks->state == KeyspaceState::kCompacting) {
      ks->state = ks->klog_clusters.empty() ? KeyspaceState::kEmpty
                                            : KeyspaceState::kWritable;
    }
    if (faults_ == nullptr || !faults_->crashed()) {
      // Make the rollback durable so a later crash cannot resurrect the
      // job state. Best-effort: the snapshot still on flash also rolls
      // back correctly at recovery.
      Status persisted = co_await keyspace_manager_.Persist();
      WarnDiscarded("rollback persist of keyspace '" + ks->name + "'",
                    persisted);
    }
    ReportBackgroundFailure(kWhat[kind], *ks, result);
  }
  ks->last_compaction = result;
  Runtime(ks).job_done.Set();
  co_await Unpin(ks);  // runs a drop deferred behind the job
}

sim::Task<Result<std::uint64_t>> Device::SealLogs(Keyspace* ks) {
  KVCSD_CO_RETURN_IF_ERROR(co_await DrainWrites(ks, /*keep_lock=*/true));
  ks->sealed_klog_clusters = std::exchange(ks->klog_clusters, {});
  ks->sealed_vlog_clusters = std::exchange(ks->vlog_clusters, {});
  ks->sealed_klog_bytes = std::exchange(ks->klog_bytes, 0);
  ks->sealed_vlog_bytes = std::exchange(ks->vlog_bytes, 0);
  co_return ks->next_seq;
}

sim::Task<Result<std::vector<ClusterId>>> Device::CommitRun(
    Keyspace* ks, JobKind job, RunLayout next, std::uint64_t seal_seq) {
  // Close the gate, then drain the readers still in flight: the swap
  // below replaces clusters and sketches a running scan may be
  // dereferencing. Queries arriving from here wait in AwaitQueryable
  // until the persist or its rollback is done; writes keep landing in the
  // live generation.
  KeyspaceRuntime& rt = Runtime(ks);
  rt.commit_gate.Reset();
  while (ks->active_readers > 0) {
    rt.readers_idle.Reset();
    if (ks->active_readers == 0) break;
    co_await rt.readers_idle.Wait();
  }
  if ((job == JobKind::kCompaction && CrashPoint("compact.before_commit")) ||
      (job == JobKind::kFold && CrashPoint("recompact.before_commit"))) {
    rt.commit_gate.Set();
    co_return Status::IoError("simulated power loss before commit");
  }
  // From the swap until the commit persist or its rollback returns, no
  // other snapshot may capture the table.
  co_await keyspace_manager_.BeginCommit();

  // Swap in the new layout; `next` holds the old one from here. The
  // snapshot is written while every old cluster is still allocated, so
  // whichever snapshot recovery loads, every cluster it references
  // exists: the stale side only ever leaks clusters, never dangles.
  const KeyspaceState job_state = ks->state;
  const std::uint64_t old_num_kvs = ks->num_kvs;
  std::swap(ks->run, next);
  std::vector<ClusterId> sealed_klog =
      std::exchange(ks->sealed_klog_clusters, {});
  std::vector<ClusterId> sealed_vlog =
      std::exchange(ks->sealed_vlog_clusters, {});
  const std::uint64_t sealed_klog_bytes =
      std::exchange(ks->sealed_klog_bytes, 0);
  const std::uint64_t sealed_vlog_bytes =
      std::exchange(ks->sealed_vlog_bytes, 0);
  ks->state = KeyspaceState::kCompacted;
  Status commit = co_await keyspace_manager_.PersistCommit();
  if (!commit.ok()) {
    std::swap(ks->run, next);
    ks->sealed_klog_clusters = std::move(sealed_klog);
    ks->sealed_vlog_clusters = std::move(sealed_vlog);
    ks->sealed_klog_bytes = sealed_klog_bytes;
    ks->sealed_vlog_bytes = sealed_vlog_bytes;
    ks->state = job_state;  // RunJob rolls back from here
    // Writes admitted in the window went to the delta against the new
    // run; recount against the old one (a WRITABLE keyspace counts log
    // records, one per mutation sequence).
    ks->num_kvs = job == JobKind::kCompaction
                      ? old_num_kvs + (ks->next_seq - seal_seq)
                      : ks->run.entries + ks->delta_live;
    keyspace_manager_.EndCommit();
    rt.commit_gate.Set();  // readers resume on the restored state
    co_return commit;
  }
  // The sealed generation is in the run now: drop its entries. Entries
  // written since the seal carry seq >= seal_seq and stay pending.
  for (auto it = ks->delta_index.begin(); it != ks->delta_index.end();) {
    const DeltaEntry& entry = it->second;
    if (entry.seq >= seal_seq) {
      ++it;
      continue;
    }
    ks->delta_index_bytes -=
        kDeltaEntryOverhead + it->first.size() + entry.value.size();
    if (!entry.tombstone) --ks->delta_live;
    it = ks->delta_index.erase(it);
  }
  ks->num_kvs = ks->run.entries + ks->delta_live;
  if (job != JobKind::kIndexBuild) {
    ++compactions_done_;
    // Blocks of the old layout must never be served from DRAM again (a
    // fold's retained blocks keep their addresses and simply re-miss). An
    // index build only adds blocks, so what is cached stays valid.
    index_cache_.EraseKeyspace(ks->id);
  }
  keyspace_manager_.EndCommit();
  rt.commit_gate.Set();

  std::vector<ClusterId> garbage = std::move(sealed_klog);
  garbage.insert(garbage.end(), sealed_vlog.begin(), sealed_vlog.end());
  const std::vector<ClusterId> run = ks->run.Clusters();
  const std::set<ClusterId> kept(run.begin(), run.end());
  for (ClusterId id : next.Clusters()) {
    if (!kept.contains(id)) garbage.push_back(id);
  }
  co_return garbage;
}

sim::Task<Status> Device::DoPut(Keyspace* ks, std::string key,
                                std::string value) {
  if (ks->state == KeyspaceState::kEmpty) {
    ks->state = KeyspaceState::kWritable;
  }
  KVCSD_CO_RETURN_IF_ERROR(CheckMutable(ks));
  KeyspaceRuntime& rt = Runtime(ks);
  co_await rt.write_lock.Acquire();
  // Re-check under the lock: a compaction can start, or a fold's delta
  // reach its bound, while this command waits for the lock.
  if (Status admit = CheckMutable(ks); !admit.ok()) {
    rt.write_lock.Release();
    co_return admit;
  }

  co_await cpu_.Compute(config_.costs.kv_op_fixed, sim::Activity::kHostWrite);
  WriteBuffer& buffer = rt.buffer;
  buffer.bytes += key.size() + value.size();
  if (ks->min_key.empty() || key < ks->min_key) ks->min_key = key;
  if (ks->max_key.empty() || key > ks->max_key) ks->max_key = key;
  const std::uint64_t seq = ks->next_seq++;
  if (DeltaMode(*ks)) {
    ApplyDeltaMutation(ks, key, value, seq, /*tombstone=*/false);
  } else {
    ++ks->num_kvs;
  }
  buffer.entries.push_back(
      WriteEntry{std::move(key), std::move(value), seq, false});

  Status s = Status::Ok();
  if (buffer.bytes >= config_.write_buffer_bytes) {
    s = co_await FlushBuffer(ks);
  }
  rt.write_lock.Release();
  MaybeRequestDeltaFold(ks);
  co_return s;
}

// Blind point delete: appends a tombstone record to the (delta) log and
// acknowledges whether or not the key exists — existence would cost an
// index lookup on the write path. Visibility is immediate (the delta
// index/write buffer shadows the run); durability follows the same
// flush + Sync contract as PUT.
sim::Task<Status> Device::DoDelete(Keyspace* ks, std::string key) {
  if (ks->state == KeyspaceState::kEmpty) {
    ks->state = KeyspaceState::kWritable;
  }
  KVCSD_CO_RETURN_IF_ERROR(CheckMutable(ks));
  KeyspaceRuntime& rt = Runtime(ks);
  co_await rt.write_lock.Acquire();
  if (Status admit = CheckMutable(ks); !admit.ok()) {
    rt.write_lock.Release();
    co_return admit;
  }

  co_await cpu_.Compute(config_.costs.kv_op_fixed, sim::Activity::kHostWrite);
  WriteBuffer& buffer = rt.buffer;
  buffer.bytes += key.size();
  const std::uint64_t seq = ks->next_seq++;
  if (DeltaMode(*ks)) {
    ApplyDeltaMutation(ks, key, std::string(), seq, /*tombstone=*/true);
  } else {
    // WRITABLE: num_kvs counts log records (replay recomputes the same);
    // compaction's last-writer-wins pass collapses it to live keys.
    ++ks->num_kvs;
  }
  buffer.entries.push_back(WriteEntry{std::move(key), std::string(), seq,
                                      /*tombstone=*/true});

  Status s = Status::Ok();
  if (buffer.bytes >= config_.write_buffer_bytes) {
    s = co_await FlushBuffer(ks);
  }
  rt.write_lock.Release();
  MaybeRequestDeltaFold(ks);
  co_return s;
}

sim::Task<Status> Device::DoBulkPut(Keyspace* ks, const std::string& frame) {
  if (ks->state == KeyspaceState::kEmpty) {
    ks->state = KeyspaceState::kWritable;
  }
  KVCSD_CO_RETURN_IF_ERROR(CheckMutable(ks));
  KeyspaceRuntime& rt = Runtime(ks);
  co_await rt.write_lock.Acquire();
  if (Status admit = CheckMutable(ks); !admit.ok()) {
    rt.write_lock.Release();
    co_return admit;
  }

  // Unpack the 128 KB bulk frame. The frame transfer is cheap, but each
  // record still costs per-record handling on the weak SoC cores — this is
  // what bounds the prototype's ingest rate; bulk puts win over singles by
  // amortizing the command/DMA overhead, not the record handling (§V).
  co_await cpu_.ComputeBytes(frame.size(), config_.costs.memcpy_bytes_per_sec,
                             sim::Activity::kHostWrite);

  Status s = Status::Ok();
  WriteBuffer& buffer = rt.buffer;
  Slice in(frame);
  std::uint32_t records_uncharged = 0;
  while (!in.empty()) {
    Slice key, value;
    if (!GetLengthPrefixedSlice(&in, &key) ||
        !GetLengthPrefixedSlice(&in, &value)) {
      s = Status::InvalidArgument("malformed bulk-put frame");
      break;
    }
    buffer.bytes += key.size() + value.size();
    ++records_uncharged;
    if (ks->min_key.empty() || key.view() < ks->min_key) {
      ks->min_key = key.ToString();
    }
    if (ks->max_key.empty() || key.view() > ks->max_key) {
      ks->max_key = key.ToString();
    }
    const std::uint64_t seq = ks->next_seq++;
    if (DeltaMode(*ks)) {
      ApplyDeltaMutation(ks, key.ToString(), value.ToString(), seq,
                         /*tombstone=*/false);
    } else {
      ++ks->num_kvs;
    }
    buffer.entries.push_back(
        WriteEntry{key.ToString(), value.ToString(), seq, false});
    if (records_uncharged >= 512) {
      co_await cpu_.Compute(records_uncharged * config_.costs.kv_op_fixed,
                            sim::Activity::kHostWrite);
      records_uncharged = 0;
    }
    if (buffer.bytes >= config_.write_buffer_bytes) {
      s = co_await FlushBuffer(ks);
      if (!s.ok()) break;
    }
  }
  if (records_uncharged > 0) {
    co_await cpu_.Compute(records_uncharged * config_.costs.kv_op_fixed,
                            sim::Activity::kHostWrite);
  }
  rt.write_lock.Release();
  MaybeRequestDeltaFold(ks);
  co_return s;
}

// Kicks off the timed flush I/O. The buffer swap is synchronous (caller
// holds the write lock); the NAND work pipelines with up to
// kMaxInflightFlushes batches in flight, spread over the cluster's zones
// by the zone manager's rotation.
sim::Task<Status> Device::FlushBuffer(Keyspace* ks) {
  KeyspaceRuntime& rt = Runtime(ks);
  if (rt.buffer.entries.empty()) co_return Status::Ok();
  WriteBuffer batch = std::exchange(rt.buffer, WriteBuffer{});

  co_await rt.flush_slots.Acquire();  // backpressure
  rt.flush_inflight.Add(1);
  // Pin before spawning: the detached FlushIo holds the raw pointer past
  // this command's lifetime, so a drop must defer until it lands.
  ++ks->inflight;
  sim_->Spawn(FlushIo(ks, std::move(batch)));
  co_return Status::Ok();
}

sim::Task<void> Device::FlushIo(Keyspace* ks, WriteBuffer batch) {
  Status result = Status::Ok();

  if (CrashPoint("flush.before_vlog")) {
    result = Status::IoError("simulated power loss (before VLOG append)");
  }

  if (result.ok()) {
    // Values: one contiguous VLOG record. Tombstones carry no value, so a
    // tombstone-only batch skips the VLOG append entirely.
    std::string values;
    values.reserve(batch.bytes);
    for (const auto& e : batch.entries) values += e.value;
    co_await cpu_.ComputeBytes(values.size(),
                               config_.costs.memcpy_bytes_per_sec,
                               sim::Activity::kHostWrite);
    co_await cpu_.Compute(config_.costs.io_path_overhead,
                          sim::Activity::kHostWrite);
    Result<std::uint64_t> vaddr{std::uint64_t{0}};
    if (!values.empty()) {
      vaddr = co_await AppendToChain(&ks->vlog_clusters, ZoneType::kVlog,
                                     Slice(values).bytes(),
                                     sim::Activity::kHostWrite);
    }
    if (vaddr.ok() && CrashPoint("flush.between_logs")) {
      // Values landed, keys did not: the VLOG record is unreachable
      // garbage recovery must not resurrect (nothing references it).
      result = Status::IoError("simulated power loss (between log appends)");
    } else if (vaddr.ok()) {
      ks->vlog_bytes += values.size();

      // Keys + value pointers: one framed KLOG record, so a torn append
      // is detectably incomplete at recovery.
      std::string payload;
      payload.reserve(batch.bytes / 2 + batch.entries.size() * 12);
      std::uint64_t offset = 0;
      for (const auto& e : batch.entries) {
        wire::AppendKlogEntry(&payload, e.key,
                              e.tombstone ? 0 : *vaddr + offset,
                              static_cast<std::uint32_t>(e.value.size()),
                              e.seq, e.tombstone);
        offset += e.value.size();
      }
      std::string klog;
      klog.reserve(payload.size() + 16);
      wire::AppendKlogFrame(&klog, Slice(payload));
      co_await cpu_.ComputeBytes(klog.size(),
                                 config_.costs.memcpy_bytes_per_sec,
                                 sim::Activity::kHostWrite);
      co_await cpu_.Compute(config_.costs.io_path_overhead,
                            sim::Activity::kHostWrite);
      auto kaddr = co_await AppendToChain(&ks->klog_clusters, ZoneType::kKlog,
                                          Slice(klog).bytes(),
                                          sim::Activity::kHostWrite);
      if (kaddr.ok()) {
        ks->klog_bytes += klog.size();
        // Both logs durable; a crash here loses only the acknowledgement.
        CrashPoint("flush.after_klog");
      } else {
        result = kaddr.status();
      }
    } else {
      result = vaddr.status();
    }
  }

  KeyspaceRuntime& rt = Runtime(ks);
  if (!result.ok()) {
    if (rt.flush_error.ok()) rt.flush_error = result;
    // The batch never became durable, but its entries are still counted
    // in num_kvs/min/max and still owed to the client. Re-queue it in
    // front of anything written since (this block has no suspension
    // point, so no put can interleave with the splice) — a retried Sync
    // then re-flushes the same data instead of persisting an empty
    // buffer and falsely reporting it durable. A VLOG record the failure
    // stranded without KLOG entries is unreferenced garbage; compaction
    // and recovery never resurrect it.
    WriteBuffer& buffer = rt.buffer;
    batch.bytes += buffer.bytes;
    batch.entries.insert(batch.entries.end(),
                         std::make_move_iterator(buffer.entries.begin()),
                         std::make_move_iterator(buffer.entries.end()));
    buffer = std::move(batch);
  }
  rt.flush_slots.Release();
  rt.flush_inflight.Done();
  co_await Unpin(ks);
}

// Explicit "fsync" (paper §VI): persists whatever PUTs are still sitting
// in the keyspace's DRAM write buffer, waits for the log I/O to land, and
// commits the cluster references to the metadata zone — only then is the
// data guaranteed to survive a power cut. During a fold the snapshot lists
// the sealed and live delta chains, so a crash rolls the fold back and
// replays both; inside its commit window Persist waits for the commit (or
// its rollback) before serializing, never capturing an uncommitted install.
sim::Task<Status> Device::DoSync(Keyspace* ks) {
  if (ks->state == KeyspaceState::kCompacting) {
    // The compactor owns the logs and drained every flush before taking
    // over; mutations have been rejected (kBusy) since, so there is
    // nothing buffered to persist.
    co_return Status::Ok();
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await DrainWrites(ks));
  if (CrashPoint("sync.before_persist")) {
    co_return Status::IoError("simulated power loss (before sync persist)");
  }
  co_return co_await keyspace_manager_.Persist();
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

sim::Task<void> Device::ReleaseClustersBestEffort(std::vector<ClusterId> ids) {
  for (ClusterId id : ids) {
    Status s = co_await zone_manager_.ReleaseCluster(id);
    if (!s.ok()) {
      std::string what = "release of cluster ";
      what += std::to_string(id);
      WarnDiscarded(what, s);
    }
  }
}

void Device::WarnDiscarded(std::string_view what, const Status& s) {
  if (s.ok()) return;
  std::string message(what);
  message += " failed: ";
  message += s.ToString();
  sim_->flight().Warn(trk_device_, message);
}

void Device::ReportBackgroundFailure(std::string_view job, const Keyspace& ks,
                                     const Status& s) {
  std::string message(job);
  message += " of keyspace '";
  message += ks.name;
  message += "' failed: ";
  message += s.ToString();
  stats().counter("device.background.failures").Increment();
  sim_->flight().Error(trk_device_, message);
  if (faults_ == nullptr || !faults_->crashed()) {
    sim_->flight().Dump("background_error");
  }
}

sim::Task<Status> Device::DropKeyspace(Keyspace* ks) {
  if (ks->inflight > 0) {
    // Deferred deletion: a running job and the pinned handlers finish
    // first (paper: "deletion may be deferred due to on-going
    // compaction"). The tombstone must be durable BEFORE the ack — an
    // acknowledged drop has to stay dropped even if power dies before
    // the deferred FinishDrop runs, so recovery completes it from the
    // persisted pending_delete flag. ks may already be freed when
    // Persist returns: the compaction can finish during the await and
    // run the deferred drop itself.
    ks->pending_delete = true;
    co_return co_await keyspace_manager_.Persist();
  }
  co_return co_await FinishDrop(ks);
}

sim::Task<Status> Device::FinishDrop(Keyspace* ks) {
  // Snapshot what the drop needs, then remove the table entry before the
  // first suspension: from here no command can find — let alone pin — the
  // dying keyspace, so freeing it is safe.
  const std::uint64_t id = ks->id;
  std::vector<ClusterId> doomed = std::move(ks->klog_clusters);
  doomed.insert(doomed.end(), ks->vlog_clusters.begin(),
                ks->vlog_clusters.end());
  const std::vector<ClusterId> run = ks->run.Clusters();
  doomed.insert(doomed.end(), run.begin(), run.end());
  KVCSD_CO_RETURN_IF_ERROR(keyspace_manager_.Erase(id));  // frees *ks
  index_cache_.EraseKeyspace(id);
  runtimes_.erase(id);

  if (CrashPoint("drop.before_persist")) {
    co_return Status::IoError("simulated power loss (before drop persist)");
  }
  // Commit point: once the snapshot without the keyspace is durable, the
  // clusters are garbage whether or not the releases below finish —
  // recovery reclaims whatever a crash leaves orphaned.
  KVCSD_CO_RETURN_IF_ERROR(co_await keyspace_manager_.Persist());
  co_await ReleaseClustersBestEffort(std::move(doomed));
  co_return Status::Ok();
}

}  // namespace kvcsd::device
