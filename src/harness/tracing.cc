#include "harness/tracing.h"

#include <cstdio>
#include <fstream>

#include "kvcsd/device.h"
#include "kvcsd/flight_recorder.h"

namespace kvcsd::harness {

namespace {
std::string g_trace_path;            // NOLINT: process-wide bench config
unsigned g_dumps = 0;                // NOLINT
std::string g_telemetry_path;        // NOLINT
Tick g_telemetry_interval = 0;       // NOLINT
unsigned g_telemetry_dumps = 0;      // NOLINT
std::string g_health_path;           // NOLINT
unsigned g_health_dumps = 0;         // NOLINT
std::string g_flight_dump_path;      // NOLINT
Tick g_flight_slo_exec_ns = 0;       // NOLINT
bool g_flight_dump_on_busy = false;  // NOLINT

// `base` for a bench's first dump, `base.<n>` for the n-th after it: one
// file per simulation. Appends piecewise rather than `"." + to_string(n)`,
// which trips a false-positive -Wrestrict in GCC 12 at -O3.
std::string NthDumpPath(const std::string& base, unsigned n) {
  std::string path = base;
  if (n > 0) {
    path += '.';
    path += std::to_string(n);
  }
  return path;
}
}  // namespace

void TraceRequest::Set(std::string path) {
  g_trace_path = std::move(path);
  g_dumps = 0;
}

bool TraceRequest::active() { return !g_trace_path.empty(); }

void TraceRequest::EnableOn(sim::Simulation* sim) {
  if (active()) sim->tracer().Enable();
}

void TraceRequest::Dump(sim::Simulation* sim) {
  if (!active() || !sim->tracer().enabled()) return;
  if (sim->tracer().size() == 0) return;
  const std::string path = NthDumpPath(g_trace_path, g_dumps++);
  Status s = sim->tracer().WriteFile(path);
  if (s.ok()) {
    std::printf("trace written to %s (%zu events", path.c_str(),
                sim->tracer().size());
    if (sim->tracer().dropped() > 0) {
      std::printf(", %llu dropped",
                  static_cast<unsigned long long>(sim->tracer().dropped()));
    }
    std::printf(")\n");
  } else {
    std::printf("FAILED to write trace: %s\n", s.ToString().c_str());
  }
}

void TelemetryRequest::Set(std::string path, Tick interval) {
  g_telemetry_path = std::move(path);
  g_telemetry_interval = interval;
  g_telemetry_dumps = 0;
}

bool TelemetryRequest::active() { return !g_telemetry_path.empty(); }

void TelemetryRequest::EnableOn(sim::Simulation* sim) {
  if (active()) sim->telemetry().Enable(g_telemetry_interval);
}

void TelemetryRequest::Dump(sim::Simulation* sim) {
  if (!active() || !sim->telemetry().enabled()) return;
  if (sim->telemetry().size() == 0) return;
  const std::string path =
      NthDumpPath(g_telemetry_path, g_telemetry_dumps++);
  Status s = sim->telemetry().WriteFile(path);
  if (s.ok()) {
    std::printf("telemetry written to %s (%zu samples", path.c_str(),
                sim->telemetry().size());
    if (sim->telemetry().dropped() > 0) {
      std::printf(", %llu dropped",
                  static_cast<unsigned long long>(sim->telemetry().dropped()));
    }
    std::printf(")\n");
  } else {
    std::printf("FAILED to write telemetry: %s\n", s.ToString().c_str());
  }
}

void HealthRequest::Set(std::string path) {
  g_health_path = std::move(path);
  g_health_dumps = 0;
}

bool HealthRequest::active() { return !g_health_path.empty(); }

void HealthRequest::Dump(device::Device* device) {
  if (!active()) return;
  const std::string path = NthDumpPath(g_health_path, g_health_dumps++);
  std::ofstream out(path);
  if (!out) {
    std::printf("FAILED to write health page: %s\n", path.c_str());
    return;
  }
  out << device->HealthJson();
  std::printf("health page written to %s\n", path.c_str());
}

void FlightRequest::Set(std::string dump_path, Tick slo_exec_ns,
                        bool dump_on_busy) {
  g_flight_dump_path = std::move(dump_path);
  g_flight_slo_exec_ns = slo_exec_ns;
  g_flight_dump_on_busy = dump_on_busy;
}

void FlightRequest::Configure(device::FlightRecorderConfig* config) {
  if (!g_flight_dump_path.empty()) config->dump_path = g_flight_dump_path;
  if (g_flight_slo_exec_ns != 0) config->slo_exec_ns = g_flight_slo_exec_ns;
  if (g_flight_dump_on_busy) config->dump_on_busy = true;
}

void ApplyObservabilityFlags(const Flags& flags) {
  TraceRequest::Set(flags.GetString("trace", ""));
  TelemetryRequest::Set(
      flags.GetString("telemetry", ""),
      Microseconds(flags.GetUint("telemetry_interval_us", 1000)));
  HealthRequest::Set(flags.GetString("health", ""));
  FlightRequest::Set(flags.GetString("flight_dump", ""),
                     Microseconds(flags.GetUint("flight_slo_us", 0)),
                     flags.GetBool("flight_busy", false));
}

}  // namespace kvcsd::harness
