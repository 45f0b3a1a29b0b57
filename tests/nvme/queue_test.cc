#include "nvme/queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "nvme/skey.h"

namespace kvcsd::nvme {
namespace {

TEST(CommandTest, WireSizesCountPayloads) {
  Command cmd;
  cmd.opcode = Opcode::kKvStore;
  cmd.key = std::string(16, 'k');
  cmd.value = std::string(100, 'v');
  EXPECT_EQ(CommandWireSize(cmd), 64u + 16 + 100);

  Completion cpl;
  cpl.value = std::string(32, 'r');
  cpl.results.emplace_back(std::string(16, 'a'), std::string(48, 'b'));
  EXPECT_EQ(CompletionWireSize(cpl), 16u + 32 + 16 + 48);
}

TEST(QueuePairTest, SubmitReceivesDeviceReply) {
  sim::Simulation sim;
  QueueSet set(&sim, PcieConfig{});

  // Echo device: completes each command with its key as the value.
  sim.Spawn([](QueueSet* queues) -> sim::Task<void> {
    for (int i = 0; i < 2; ++i) {
      auto incoming = co_await queues->NextCommand();
      Completion reply;
      reply.status = Status::Ok();
      reply.value = "echo:" + incoming.command.key;
      co_await queues->Complete(std::move(incoming), std::move(reply));
    }
  }(&set));

  std::vector<std::string> replies;
  sim.Spawn([](QueuePair* queue, std::vector<std::string>* out)
                -> sim::Task<void> {
    for (int i = 0; i < 2; ++i) {
      Command cmd;
      cmd.opcode = Opcode::kKvRetrieve;
      cmd.key = "k" + std::to_string(i);
      Completion reply =
          co_await testutil::SubmitAndWait(queue, std::move(cmd));
      out->push_back(reply.value);
    }
  }(set.pair(0), &replies));

  sim.Run();
  EXPECT_EQ(replies, (std::vector<std::string>{"echo:k0", "echo:k1"}));
  EXPECT_EQ(set.pair(0)->submitted(), 2u);
  EXPECT_EQ(set.pair(0)->completed(), 2u);
}

TEST(QueuePairTest, TransferTimeScalesWithPayload) {
  sim::Simulation sim;
  PcieConfig pcie;
  pcie.bytes_per_sec = 1e9;
  pcie.request_latency = Microseconds(10);
  pcie.completion_latency = Microseconds(10);
  QueueSet set(&sim, pcie);

  sim.Spawn([](QueueSet* queues) -> sim::Task<void> {
    auto incoming = co_await queues->NextCommand();
    // NOTE: named + std::move, never a prvalue temporary — see the
    // "GCC 12 pitfall" note in sim/task.h.
    Completion reply;
    co_await queues->Complete(std::move(incoming), std::move(reply));
  }(&set));

  Tick done = 0;
  sim.Spawn([](sim::Simulation* s, QueuePair* queue,
               Tick* out) -> sim::Task<void> {
    Command cmd;
    cmd.opcode = Opcode::kBulkStore;
    cmd.value = std::string(MiB(1), 'x');
    (void)co_await testutil::SubmitAndWait(queue, std::move(cmd));
    *out = s->Now();
  }(&sim, set.pair(0), &done));
  sim.Run();

  // >= 1 MiB at 1 GB/s plus both latencies.
  EXPECT_GE(done, TransferTicks(MiB(1), 1e9) + Microseconds(20));
  EXPECT_GT(set.host_to_device_bytes(), MiB(1));
  EXPECT_EQ(set.device_to_host_bytes(), 16u);  // bare CQE
}

TEST(QueuePairTest, ConcurrentSubmittersEachGetTheirReply) {
  sim::Simulation sim;
  QueueSet set(&sim, PcieConfig{});

  sim.Spawn([](QueueSet* queues) -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      auto incoming = co_await queues->NextCommand();
      Completion reply;
      reply.value = incoming.command.key;
      co_await queues->Complete(std::move(incoming), std::move(reply));
    }
  }(&set));

  int correct = 0;
  for (int t = 0; t < 8; ++t) {
    sim.Spawn([](QueuePair* queue, int id, int* ok_count) -> sim::Task<void> {
      Command cmd;
      cmd.key = "key-" + std::to_string(id);
      Completion reply =
          co_await testutil::SubmitAndWait(queue, std::move(cmd));
      if (reply.value == "key-" + std::to_string(id)) ++*ok_count;
    }(set.pair(0), t, &correct));
  }
  sim.Run();
  EXPECT_EQ(correct, 8);
}

// Doorbell batching (DESIGN.md §11): a batch of K commands rings one
// doorbell, so the per-command request latency is paid once. K serial
// batches of one pay it K times; the byte service time is identical.
TEST(QueuePairTest, BatchedSubmitAmortizesDoorbell) {
  sim::Simulation sim;
  PcieConfig pcie;
  pcie.bytes_per_sec = 1e9;
  pcie.request_latency = Microseconds(10);
  QueueSet serial_set(&sim, pcie);  // each set owns its own link
  QueueSet batch_set(&sim, pcie);
  constexpr std::uint64_t kCommands = 8;

  Command probe;
  probe.opcode = Opcode::kKvStore;
  probe.key = std::string(16, 'k');
  probe.value = std::string(1024, 'v');
  const std::uint64_t wire = CommandWireSize(probe);

  Tick serial_done = 0;
  sim.Spawn([](sim::Simulation* s, QueuePair* qp,
               Tick* out) -> sim::Task<void> {
    for (std::uint64_t i = 0; i < kCommands; ++i) {
      Command cmd;
      cmd.opcode = Opcode::kKvStore;
      cmd.key = std::string(16, 'k');
      cmd.value = std::string(1024, 'v');
      (void)co_await testutil::SubmitOne(qp, std::move(cmd));
    }
    *out = s->Now();
  }(&sim, serial_set.pair(0), &serial_done));

  Tick batch_done = 0;
  sim.Spawn([](sim::Simulation* s, QueuePair* qp,
               Tick* out) -> sim::Task<void> {
    std::vector<Command> cmds;
    for (std::uint64_t i = 0; i < kCommands; ++i) {
      Command cmd;
      cmd.opcode = Opcode::kKvStore;
      cmd.key = std::string(16, 'k');
      cmd.value = std::string(1024, 'v');
      cmds.push_back(std::move(cmd));
    }
    (void)co_await qp->Submit(std::move(cmds));
    *out = s->Now();
  }(&sim, batch_set.pair(0), &batch_done));

  sim.Run();

  // Serial: every submit pays request_latency + its own service time.
  EXPECT_EQ(serial_done,
            kCommands * (Microseconds(10) + TransferTicks(wire, 1e9)));
  // Batched: one doorbell, one back-to-back DMA of all K payloads.
  EXPECT_EQ(batch_done,
            Microseconds(10) + TransferTicks(kCommands * wire, 1e9));
  EXPECT_LT(batch_done, serial_done);
  EXPECT_GE(serial_done - batch_done, (kCommands - 1) * Microseconds(10));
  EXPECT_EQ(serial_set.sq_depth(), kCommands);
  EXPECT_EQ(batch_set.sq_depth(), kCommands);
}

TEST(QueueSetTest, RoundRobinAlternatesAcrossPairs) {
  sim::Simulation sim;
  QueueSetConfig cfg;
  cfg.num_queues = 2;
  QueueSet set(&sim, cfg);

  for (std::uint32_t q = 0; q < 2; ++q) {
    sim.Spawn([](QueueSet* s, std::uint32_t queue) -> sim::Task<void> {
      for (int i = 0; i < 3; ++i) {
        Command cmd;
        cmd.opcode = Opcode::kKvStore;
        cmd.key = "q" + std::to_string(queue) + "-" + std::to_string(i);
        (void)co_await testutil::SubmitOne(s->pair(queue), std::move(cmd));
      }
    }(&set, q));
  }

  std::vector<std::uint32_t> order;
  sim.Spawn([](sim::Simulation* s, QueueSet* qs,
               std::vector<std::uint32_t>* out) -> sim::Task<void> {
    // Let both submitters fill their SQs before the device starts popping.
    co_await s->Delay(Milliseconds(1));
    for (int i = 0; i < 6; ++i) {
      auto incoming = co_await qs->NextCommand();
      out->push_back(incoming.queue_id);
      Completion reply;
      co_await qs->Complete(std::move(incoming), std::move(reply));
    }
  }(&sim, &set, &order));

  sim.Run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 0, 1, 0, 1}));
  EXPECT_EQ(set.submitted(), 6u);
  EXPECT_EQ(set.completed(), 6u);
  EXPECT_EQ(set.sq_depth(), 0u);
}

TEST(QueueSetTest, WeightedArbitrationSpendsQuanta) {
  sim::Simulation sim;
  QueueSetConfig cfg;
  cfg.num_queues = 2;
  cfg.arbitration = Arbitration::kWeighted;
  cfg.weights = {2, 1};
  QueueSet set(&sim, cfg);

  sim.Spawn([](QueueSet* s) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      Command cmd;
      cmd.opcode = Opcode::kKvStore;
      (void)co_await testutil::SubmitOne(s->pair(0), std::move(cmd));
    }
    for (int i = 0; i < 2; ++i) {
      Command cmd;
      cmd.opcode = Opcode::kKvStore;
      (void)co_await testutil::SubmitOne(s->pair(1), std::move(cmd));
    }
  }(&set));

  std::vector<std::uint32_t> order;
  sim.Spawn([](sim::Simulation* s, QueueSet* qs,
               std::vector<std::uint32_t>* out) -> sim::Task<void> {
    co_await s->Delay(Milliseconds(1));
    for (int i = 0; i < 6; ++i) {
      auto incoming = co_await qs->NextCommand();
      out->push_back(incoming.queue_id);
      Completion reply;
      co_await qs->Complete(std::move(incoming), std::move(reply));
    }
  }(&sim, &set, &order));

  sim.Run();
  // weights {2,1}: two from queue 0, one from queue 1, repeat.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 0, 1, 0, 0, 1}));
}

TEST(QueueSetTest, DepthCapBlocksSubmittersUntilCompletionsFreeSlots) {
  // Without a device, the third submission blocks on the per-queue cap.
  {
    sim::Simulation sim;
    QueueSetConfig cfg;
    cfg.sq_depth_cap = 2;
    QueueSet set(&sim, cfg);
    sim.Spawn([](QueueSet* s) -> sim::Task<void> {
      for (int i = 0; i < 3; ++i) {
        Command cmd;
        cmd.opcode = Opcode::kKvStore;
        (void)co_await testutil::SubmitOne(s->pair(0), std::move(cmd));
      }
    }(&set));
    sim.Run();
    EXPECT_EQ(set.submitted(), 2u);
  }
  // With a device completing commands, slots recycle and all finish.
  {
    sim::Simulation sim;
    QueueSetConfig cfg;
    cfg.sq_depth_cap = 2;
    QueueSet set(&sim, cfg);
    sim.Spawn([](QueueSet* s) -> sim::Task<void> {
      for (int i = 0; i < 5; ++i) {
        auto incoming = co_await s->NextCommand();
        Completion reply;
        co_await s->Complete(std::move(incoming), std::move(reply));
      }
    }(&set));
    sim.Spawn([](QueueSet* s) -> sim::Task<void> {
      std::vector<std::shared_ptr<ReplyState>> states;
      for (int i = 0; i < 5; ++i) {
        Command cmd;
        cmd.opcode = Opcode::kKvStore;
        auto state = co_await testutil::SubmitOne(s->pair(0), std::move(cmd));
        states.push_back(std::move(state));
      }
      for (auto& state : states) co_await state->done.Wait();
    }(&set));
    sim.Run();
    EXPECT_EQ(set.submitted(), 5u);
    EXPECT_EQ(set.completed(), 5u);
    EXPECT_EQ(set.inflight(), 0u);
  }
}

TEST(SkeyTest, TypedEncodersPreserveOrder) {
  EXPECT_LT(EncodeSecondaryF32(1.5f), EncodeSecondaryF32(2.5f));
  EXPECT_LT(EncodeSecondaryF32(-3.0f), EncodeSecondaryF32(-1.0f));
  EXPECT_LT(EncodeSecondaryF32(-1.0f), EncodeSecondaryF32(1.0f));
  EXPECT_LT(EncodeSecondaryI32(-5), EncodeSecondaryI32(7));
  EXPECT_LT(EncodeSecondaryU64(10), EncodeSecondaryU64(200));
  EXPECT_LT(EncodeSecondaryF64(-0.1), EncodeSecondaryF64(0.1));
}

TEST(SkeyTest, EncodeSecondaryKeyBytesDispatchesOnType) {
  SecondaryIndexSpec spec;
  spec.type = SecondaryKeyType::kF32;
  spec.value_length = 4;
  float f = 42.5f;
  std::string raw(reinterpret_cast<const char*>(&f), 4);
  auto encoded = EncodeSecondaryKeyBytes(Slice(raw), spec);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(*encoded, EncodeSecondaryF32(42.5f));

  // Length mismatch rejected.
  spec.value_length = 8;
  auto bad = EncodeSecondaryKeyBytes(Slice(raw), spec);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kvcsd::nvme
