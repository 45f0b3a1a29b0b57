#include "sim/flight_recorder.h"

#include <algorithm>
#include <fstream>

#include "sim/telemetry.h"
#include "sim/tracer.h"

namespace kvcsd::sim {

namespace {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  AppendJsonEscaped(out, s);
  out->push_back('"');
}

void AppendField(std::string* out, std::string_view name,
                 std::uint64_t value) {
  *out += ", \"";
  *out += name;
  *out += "\": ";
  *out += std::to_string(value);
}

}  // namespace

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

FlightRecorder::FlightRecorder(const Tick* clock,
                               const TelemetrySampler* telemetry)
    : clock_(clock), telemetry_(telemetry), ring_(kCapacity) {}

FlightRecorder::Entry& FlightRecorder::NextSlot() {
  Entry& slot = ring_[next_seq_ % kCapacity];
  slot.seq = next_seq_++;
  slot.tick = *clock_;
  return slot;
}

void FlightRecorder::RecordCommand(const Command& command) {
  Entry& slot = NextSlot();
  slot.kind = Entry::Kind::kCommand;
  slot.command = command;
  // clear() keeps capacity: a later breadcrumb in this slot reuses it.
  slot.component.clear();
  slot.message.clear();
  if (options_.slo_exec_ns != 0 && command.exec_ns > options_.slo_exec_ns) {
    Dump("slo_exec");
  } else if (options_.dump_on_busy && command.status == StatusCode::kBusy) {
    Dump("busy");
  }
}

void FlightRecorder::Write(LogLevel level, std::string_view component,
                           std::string_view message) {
  Entry& slot = NextSlot();
  slot.kind = Entry::Kind::kEvent;
  slot.command = Command{};
  slot.level = level;
  slot.component.assign(component);
  slot.message.assign(message);
}

std::size_t FlightRecorder::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(next_seq_, kCapacity));
}

std::vector<FlightRecorder::Entry> FlightRecorder::Entries() const {
  std::vector<Entry> out;
  out.reserve(size());
  for (std::uint64_t seq = next_seq_ - size(); seq < next_seq_; ++seq) {
    out.push_back(At(seq));
  }
  return out;
}

std::string FlightRecorder::Dump(std::string_view reason,
                                 std::string_view crash_point) {
  ++trips_;
  std::string json = "{\n  \"reason\": ";
  AppendJsonString(&json, reason);
  AppendField(&json, "tick", *clock_);
  AppendField(&json, "trip", trips_);
  AppendField(&json, "written", next_seq_);
  if (!crash_point.empty()) {
    json += ", \"crash_point\": ";
    AppendJsonString(&json, crash_point);
  }
  json += ",\n  \"utilization\": {";
  TelemetrySampler::Gauges gauges;
  if (telemetry_ != nullptr) telemetry_->Collect(&gauges);
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    json += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(&json, gauges[i].first);
    json += ": ";
    json += std::to_string(gauges[i].second);
  }
  if (!gauges.empty()) json += "\n  ";
  json += "},\n  \"entries\": [";
  for (std::uint64_t seq = next_seq_ - size(); seq < next_seq_; ++seq) {
    const Entry& e = At(seq);
    json += seq == next_seq_ - size() ? "\n    {" : ",\n    {";
    json += "\"seq\": ";
    json += std::to_string(e.seq);
    AppendField(&json, "tick", e.tick);
    if (e.kind == Entry::Kind::kCommand) {
      const Command& c = e.command;
      json += ", \"kind\": \"cmd\"";
      AppendField(&json, "cmd_id", c.cmd_id);
      json += ", \"op\": ";
      AppendJsonString(&json, c.op);
      AppendField(&json, "q", c.queue_id);
      AppendField(&json, "queue_wait_ns", c.queue_wait_ns);
      AppendField(&json, "dispatch_ns", c.dispatch_ns);
      AppendField(&json, "exec_ns", c.exec_ns);
      json += ", \"status\": ";
      AppendJsonString(&json, StatusCodeName(c.status));
    } else {
      json += ", \"kind\": \"event\", \"level\": ";
      AppendJsonString(&json, LogLevelName(e.level));
      json += ", \"component\": ";
      AppendJsonString(&json, e.component);
      json += ", \"message\": ";
      AppendJsonString(&json, e.message);
    }
    json += "}";
  }
  if (next_seq_ != 0) json += "\n  ";
  json += "]\n}\n";

  last_dump_ = json;
  if (!options_.dump_path.empty()) {
    std::string path = options_.dump_path;
    path += '.';
    path += std::to_string(trips_);
    path += ".json";
    std::ofstream(path) << json;
  }
  return json;
}

}  // namespace kvcsd::sim
