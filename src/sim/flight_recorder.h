// The simulation's flight recorder (DESIGN.md §14): one fixed-capacity
// ring of recent events, in one seq/tick order. An entry is either a
// completed-command summary (the device records one per command) or a
// leveled breadcrumb (the fault injector's crash points and injected
// errors, recovery's narrative, background failures).
//
// The ring dumps itself as JSON — the entries oldest first plus a
// `utilization` snapshot read from the live telemetry sources — when:
//
//  * a command trips an SLO rule (options: slo_exec_ns, dump_on_busy);
//  * the fault injector cuts power (always; the dump names the crash
//    point);
//  * a background compaction or fold fails ("background_error").
//
// The newest dump is kept in memory (last_dump()); with dump_path set,
// each dump is also written to <dump_path>.<trip>.json. The Simulation
// owns the ring, so it survives Device::Restart and collects every shard
// of a multi-device simulation; the telemetry sources it snapshots are
// replaced by key across a restart, so a dump always shows the live
// device.
//
// Recording a command never allocates (it runs for every completed
// command), and nothing here advances simulated time.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace kvcsd::sim {

class TelemetrySampler;

enum class LogLevel : std::uint8_t {
  kInfo = 0,
  kWarn = 1,
  kError = 2,
};

std::string_view LogLevelName(LogLevel level);

class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 256;

  // One completed command, as the device saw it.
  struct Command {
    std::uint64_t cmd_id = 0;
    std::string_view op;  // opcode name; must have static storage
    std::uint32_t queue_id = 0;
    Tick queue_wait_ns = 0;  // SQ residency before the main loop popped it
    Tick dispatch_ns = 0;    // pop -> handler start (dispatch-core time)
    Tick exec_ns = 0;        // handler start -> completion
    StatusCode status = StatusCode::kOk;
  };

  struct Entry {
    enum class Kind : std::uint8_t { kCommand, kEvent };
    std::uint64_t seq = 0;  // monotonic across ring evictions
    Tick tick = 0;
    Kind kind = Kind::kEvent;
    Command command;  // kCommand only
    LogLevel level = LogLevel::kInfo;
    std::string component;  // kEvent only
    std::string message;    // kEvent only
  };

  // The settable trip rules; the crash and background-error dumps are
  // always on.
  struct Options {
    // Dump when a command's exec latency exceeds this bound; 0 disables.
    Tick slo_exec_ns = 0;
    // Dump when a command completes kBusy (compaction backpressure).
    bool dump_on_busy = false;
    // File prefix for dumps ("<path>.<trip>.json"); empty = memory only.
    std::string dump_path;
  };

  // `clock` stamps entries; `telemetry` (may be null) feeds the dump's
  // utilization section. Both must outlive the recorder.
  FlightRecorder(const Tick* clock, const TelemetrySampler* telemetry);

  void set_options(Options options) { options_ = std::move(options); }
  const Options& options() const { return options_; }

  // Appends one command summary, then dumps if it trips an SLO rule.
  void RecordCommand(const Command& command);

  void Write(LogLevel level, std::string_view component,
             std::string_view message);
  void Info(std::string_view component, std::string_view message) {
    Write(LogLevel::kInfo, component, message);
  }
  void Warn(std::string_view component, std::string_view message) {
    Write(LogLevel::kWarn, component, message);
  }
  void Error(std::string_view component, std::string_view message) {
    Write(LogLevel::kError, component, message);
  }

  // Serializes the ring plus the utilization snapshot, retains it as
  // last_dump(), writes it to dump_path when set, and counts the trip.
  // Returns the JSON document.
  std::string Dump(std::string_view reason, std::string_view crash_point = {});

  // Surviving entries, oldest first.
  std::vector<Entry> Entries() const;
  std::size_t size() const;
  // Total entries written, including those the ring has since evicted.
  std::uint64_t total_written() const { return next_seq_; }
  // Dumps taken, whatever triggered them.
  std::uint64_t trips() const { return trips_; }
  const std::string& last_dump() const { return last_dump_; }

 private:
  Entry& NextSlot();
  const Entry& At(std::uint64_t seq) const { return ring_[seq % kCapacity]; }

  const Tick* clock_;
  const TelemetrySampler* telemetry_;
  Options options_;
  std::vector<Entry> ring_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t trips_ = 0;
  std::string last_dump_;
};

}  // namespace kvcsd::sim
