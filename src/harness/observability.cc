#include "harness/observability.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

#include "harness/flags.h"
#include "kvcsd/device.h"
#include "sim/simulation.h"

namespace kvcsd::harness {

namespace {

// Where the next dump to `base` goes: `base` the first time in this
// process, then `base.1`, `base.2`, ... Appends piecewise rather than
// `"." + to_string(n)`, which trips a false-positive -Wrestrict in GCC 12
// at -O3.
std::string NextDumpPath(const std::string& base) {
  static std::map<std::string, unsigned> dumps_per_path;
  const unsigned n = dumps_per_path[base]++;
  std::string path = base;
  if (n > 0) {
    path += '.';
    path += std::to_string(n);
  }
  return path;
}

// Writes a sim::Tracer or sim::TelemetrySampler to the next path for
// `base`, unless that output is off or recorded nothing.
template <typename Recording>
void WriteRecording(const Recording& recording, const std::string& base,
                    const char* what, const char* unit) {
  if (base.empty() || !recording.enabled() || recording.size() == 0) return;
  const std::string path = NextDumpPath(base);
  Status s = recording.WriteFile(path);
  if (!s.ok()) {
    std::printf("FAILED to write %s: %s\n", what, s.ToString().c_str());
    return;
  }
  std::printf("%s written to %s (%zu %s", what, path.c_str(),
              recording.size(), unit);
  if (recording.dropped() > 0) {
    std::printf(", %llu dropped",
                static_cast<unsigned long long>(recording.dropped()));
  }
  std::printf(")\n");
}

}  // namespace

ObservabilityOptions ObservabilityOptions::FromFlags(const Flags& flags) {
  ObservabilityOptions o;
  o.trace_path = flags.GetString("trace", "");
  o.telemetry_path = flags.GetString("telemetry", "");
  o.telemetry_interval =
      Microseconds(flags.GetUint("telemetry_interval_us", 1000));
  o.health_path = flags.GetString("health", "");
  o.flight.dump_path = flags.GetString("flight_dump", "");
  o.flight.slo_exec_ns = Microseconds(flags.GetUint("flight_slo_us", 0));
  o.flight.dump_on_busy = flags.GetBool("flight_busy", false);
  return o;
}

void ObservabilityOptions::Attach(sim::Simulation* sim) const {
  if (!trace_path.empty()) sim->tracer().Enable();
  if (!telemetry_path.empty()) sim->telemetry().Enable(telemetry_interval);
  // A simulation numbers its flight dumps by its own trip count, so each
  // one gets its own base; otherwise a sweep's dumps overwrite each other.
  sim::FlightRecorder::Options options = flight;
  if (!options.dump_path.empty()) {
    options.dump_path = NextDumpPath(options.dump_path);
  }
  sim->flight().set_options(std::move(options));
}

void ObservabilityOptions::Dump(
    const sim::Simulation& sim,
    const std::vector<const device::Device*>& devices) const {
  if (!health_path.empty()) {
    for (const device::Device* device : devices) {
      const std::string path = NextDumpPath(health_path);
      std::ofstream out(path);
      if (!out) {
        std::printf("FAILED to write health page: %s\n", path.c_str());
        continue;
      }
      out << device->HealthJson();
      std::printf("health page written to %s\n", path.c_str());
    }
  }
  WriteRecording(sim.tracer(), trace_path, "trace", "events");
  WriteRecording(sim.telemetry(), telemetry_path, "telemetry", "samples");
}

}  // namespace kvcsd::harness
