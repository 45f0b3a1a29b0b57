#include "harness/tracing.h"

#include <cstdio>
#include <fstream>

#include "kvcsd/device.h"

namespace kvcsd::harness {

namespace {
std::string g_trace_path;            // NOLINT: process-wide bench config
unsigned g_dumps = 0;                // NOLINT
std::string g_telemetry_path;        // NOLINT
Tick g_telemetry_interval = 0;       // NOLINT
unsigned g_telemetry_dumps = 0;      // NOLINT
std::string g_health_path;           // NOLINT
unsigned g_health_dumps = 0;         // NOLINT

sim::FlightRecorder::Options g_flight_options;  // NOLINT

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

void FlightRequest::Set(sim::FlightRecorder::Options options) {
  g_flight_options = std::move(options);
}

void FlightRequest::EnableOn(sim::Simulation* sim) {
  sim->flight().set_options(g_flight_options);
}

void ApplyObservabilityFlags(const Flags& flags) {
  TraceRequest::Set(flags.GetString("trace", ""));
  TelemetryRequest::Set(
      flags.GetString("telemetry", ""),
      Microseconds(flags.GetUint("telemetry_interval_us", 1000)));
  HealthRequest::Set(flags.GetString("health", ""));
  sim::FlightRecorder::Options flight;
  flight.slo_exec_ns = Microseconds(flags.GetUint("flight_slo_us", 0));
  flight.dump_on_busy = flags.GetBool("flight_busy", false);
  flight.dump_path = flags.GetString("flight_dump", "");
  FlightRequest::Set(std::move(flight));
}

}  // namespace kvcsd::harness
