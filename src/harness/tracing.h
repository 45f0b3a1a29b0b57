// Process-wide observability requests for bench binaries.
//
// Benches pass --trace=<path> / --telemetry=<path>; main() forwards both
// here once via ApplyObservabilityFlags. Every simulation the harness
// testbeds construct afterwards records span events (sim/tracer.h) and
// gauge time-series (sim/telemetry.h), and each testbed dumps its
// simulation's outputs when it is destroyed: the first dump writes
// <path>, subsequent ones <path>.1, <path>.2, ... (benches that sweep a
// parameter build one testbed per point). Empty dumps are skipped. Load
// trace files in chrome://tracing or https://ui.perfetto.dev; feed both
// files to tools/analyze_trace.py for the latency breakdown.
#pragma once

#include <string>

#include "harness/flags.h"
#include "sim/simulation.h"

namespace kvcsd::device {
class Device;
}  // namespace kvcsd::device

namespace kvcsd::harness {

class TraceRequest {
 public:
  // Empty path = tracing stays off (the default).
  static void Set(std::string path);
  static bool active();

  // Called by testbed constructors: turns the sim's tracer on when a
  // trace was requested.
  static void EnableOn(sim::Simulation* sim);

  // Called by testbed destructors: writes the sim's trace file (if
  // tracing is active and the sim recorded any events).
  static void Dump(sim::Simulation* sim);
};

class TelemetryRequest {
 public:
  // Empty path = telemetry stays off. `interval` is the simulated-time
  // sampling cadence.
  static void Set(std::string path, Tick interval = Microseconds(1000));
  static bool active();

  static void EnableOn(sim::Simulation* sim);
  static void Dump(sim::Simulation* sim);
};

// --health=<path>: each CsdTestbed dumps its device's health page (the
// same gauges a wire-level GetHealth() pull returns) as JSON when it is
// destroyed — <path>, then <path>.1, <path>.2, ... like the trace dumps.
class HealthRequest {
 public:
  static void Set(std::string path);
  static bool active();
  static void Dump(device::Device* device);
};

// --flight_dump=<path> / --flight_slo_us=<n> / --flight_busy: the
// flight-recorder options (sim/flight_recorder.h, DESIGN.md §14) that
// every device testbed applies to its simulation's ring.
class FlightRequest {
 public:
  static void Set(sim::FlightRecorder::Options options);
  static void EnableOn(sim::Simulation* sim);
};

// One-stop bench wiring: forwards --trace=<path>, --telemetry=<path>,
// --telemetry_interval_us=<n>, --health=<path>, and the --flight_* flags
// to the requests above. Every bench main calls this right after parsing
// flags.
void ApplyObservabilityFlags(const Flags& flags);

}  // namespace kvcsd::harness
