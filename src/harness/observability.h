// What a bench run records about itself, as one copyable value.
//
// Benches build it once from their flags (FromFlags) and store it in the
// TestbedConfig they already build; every testbed then turns on what it
// asks for when it builds its simulation (Attach) and writes the outputs
// when it is destroyed (Dump). Off by default: a default-constructed
// value records nothing and writes no file.
//
//   --trace=<path>             span events (sim/tracer.h); load in
//                              chrome://tracing or https://ui.perfetto.dev
//   --telemetry=<path>         gauge time-series (sim/telemetry.h), sampled
//   --telemetry_interval_us=N  every N simulated microseconds (default 1000)
//   --health=<path>            each device's health page, the same gauges a
//                              wire-level GetHealth() pull returns
//   --flight_dump=<path>       flight-recorder options (sim/flight_recorder.h,
//   --flight_slo_us=N          DESIGN.md §14)
//   --flight_busy
//
// Benches that sweep a parameter build one testbed per point, so the
// first dump to a path writes <path> and later ones <path>.1, <path>.2,
// ...; a trace or telemetry series with no events writes no file. Flight
// dumps are numbered the same way per simulation: the first one attached
// writes <path>.<trip>.json, the next <path>.1.<trip>.json, and so on. Feed
// the trace and telemetry files to tools/analyze_trace.py for the
// latency breakdown.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "sim/flight_recorder.h"

namespace kvcsd::device {
class Device;
}  // namespace kvcsd::device

namespace kvcsd::sim {
class Simulation;
}  // namespace kvcsd::sim

namespace kvcsd::harness {

class Flags;

struct ObservabilityOptions {
  // An empty path turns that output off.
  std::string trace_path;
  std::string telemetry_path;
  Tick telemetry_interval = Microseconds(1000);  // simulated sampling cadence
  std::string health_path;
  sim::FlightRecorder::Options flight;

  // The flags FromFlags reads. They name output files and recording
  // options, not workload parameters, so reports leave them out of
  // their "args".
  static constexpr std::array<std::string_view, 7> kFlagNames = {
      "trace",
      "telemetry",
      "telemetry_interval_us",
      "health",
      "flight_dump",
      "flight_slo_us",
      "flight_busy",
  };

  static ObservabilityOptions FromFlags(const Flags& flags);

  // Turns on the tracer and telemetry sampler of `sim` when asked for
  // and applies the flight-recorder options, with the dump path's next
  // number as this simulation's base. Call before `sim` runs.
  void Attach(sim::Simulation* sim) const;

  // Writes a health page per device in `devices`, then the trace and
  // telemetry of `sim`, each to its path's next number (see above).
  void Dump(const sim::Simulation& sim,
            const std::vector<const device::Device*>& devices) const;
};

}  // namespace kvcsd::harness
