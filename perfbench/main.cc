// One workload run of the end-to-end benchmark; prints one JSON line.
//
//   kvcsd_perfbench --workload=ingest|serve|query --seed=N [--trace=1]
//                   [--trace_out=PATH] [--small=1] [--inject_mismatch=1]
//
// --small shrinks every workload for the benchmark's own tests, and
// --inject_mismatch perturbs the host-side model so the tests can check
// that verification fails. Exit code 0 only when every operation succeeded
// and every answer matched the model. run.py repeats runs and aggregates.
#include <cstdio>
#include <string>

#include "bench.h"
#include "harness/flags.h"

int main(int argc, char** argv) {
  kvcsd::harness::Flags flags(argc, argv);
  perfbench::RunOptions opts;
  opts.seed = flags.GetUint("seed", 1);
  opts.trace = flags.GetBool("trace");
  opts.small = flags.GetBool("small");
  opts.inject_mismatch = flags.GetBool("inject_mismatch");
  opts.trace_path = flags.GetString("trace_out", "perfbench_spans.jsonl");
  const std::string workload = flags.GetString("workload", "");

  if (workload != "ingest" && workload != "serve" && workload != "query") {
    std::fprintf(stderr, "unknown --workload '%s' (ingest|serve|query)\n",
                 workload.c_str());
    return 2;
  }
  perfbench::RunResult result;
  if (workload == "ingest") {
    result = perfbench::RunIngest(opts);
  } else if (workload == "serve") {
    result = perfbench::RunServe(opts);
  } else {
    result = perfbench::RunQuery(opts);
  }
  std::printf("%s\n", perfbench::ToJson(result).c_str());
  return result.failed == 0 && result.mismatches == 0 ? 0 : 1;
}
