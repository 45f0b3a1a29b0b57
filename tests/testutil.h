// Test helpers shared across suites: run a coroutine on a simulation and
// return its result after the event queue drains; submit raw commands on
// a queue pair.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "nvme/queue.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace kvcsd::testutil {

template <typename T>
T RunSim(sim::Simulation& simulation, sim::Task<T> task) {
  std::optional<T> result;
  simulation.Spawn([](sim::Task<T> t, std::optional<T>* out)
                       -> sim::Task<void> {
    out->emplace(co_await std::move(t));
  }(std::move(task), &result));
  simulation.Run();
  EXPECT_TRUE(result.has_value()) << "coroutine did not complete";
  return std::move(*result);
}

inline void RunSim(sim::Simulation& simulation, sim::Task<void> task) {
  bool done = false;
  simulation.Spawn([](sim::Task<void> t, bool* flag) -> sim::Task<void> {
    co_await std::move(t);
    *flag = true;
  }(std::move(task), &done));
  simulation.Run();
  EXPECT_TRUE(done) << "coroutine did not complete";
}

// Submits one command as a batch of one on `pair`, without a CQ ring:
// returns once it is on the SQ; its completion sets the state's `done`.
inline sim::Task<std::shared_ptr<nvme::ReplyState>> SubmitOne(
    nvme::QueuePair* pair, nvme::Command command) {
  std::vector<nvme::Command> batch;
  batch.push_back(std::move(command));
  std::vector<std::shared_ptr<nvme::ReplyState>> states =
      co_await pair->Submit(std::move(batch));
  co_return std::move(states.front());
}

// SubmitOne, then awaits the command's completion.
inline sim::Task<nvme::Completion> SubmitAndWait(nvme::QueuePair* pair,
                                                 nvme::Command command) {
  std::shared_ptr<nvme::ReplyState> state =
      co_await SubmitOne(pair, std::move(command));
  co_await state->done.Wait();
  co_return std::move(state->completion);
}

}  // namespace kvcsd::testutil

// gtest's ASSERT_* macros expand to a plain `return;`, which does not
// compile inside a coroutine. These record the failure with EXPECT and
// co_return instead. Use only in Task<void> coroutines.
#define KVCSD_CO_ASSERT(cond)                      \
  do {                                             \
    const bool kvcsd_co_ok_ = static_cast<bool>(cond); \
    EXPECT_TRUE(kvcsd_co_ok_) << #cond;            \
    if (!kvcsd_co_ok_) co_return;                  \
  } while (0)

// For Status / Result<T> expressions (anything with .ok()).
#define KVCSD_CO_ASSERT_OK(expr)                   \
  do {                                             \
    const auto& kvcsd_co_res_ = (expr);            \
    EXPECT_TRUE(kvcsd_co_res_.ok()) << #expr;      \
    if (!kvcsd_co_res_.ok()) co_return;            \
  } while (0)
