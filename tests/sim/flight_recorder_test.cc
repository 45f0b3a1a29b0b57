// The simulation's flight recorder: one bounded ring of command summaries
// and leveled breadcrumbs, in one seq/tick order, with one JSON dump.
#include "sim/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/telemetry.h"

namespace kvcsd::sim {
namespace {

using Kind = FlightRecorder::Entry::Kind;

FlightRecorder::Command MakeCommand(std::uint64_t cmd_id) {
  FlightRecorder::Command c;
  c.cmd_id = cmd_id;
  c.op = "kv_store";
  c.exec_ns = 500;
  return c;
}

TEST(LogTest, LevelNames) {
  EXPECT_EQ(LogLevelName(LogLevel::kInfo), "INFO");
  EXPECT_EQ(LogLevelName(LogLevel::kWarn), "WARN");
  EXPECT_EQ(LogLevelName(LogLevel::kError), "ERROR");
}

TEST(LogTest, EntriesStampedWithBoundClock) {
  Tick now = 0;
  FlightRecorder rec(&now, nullptr);
  now = 123;
  rec.Info("device", "first");
  now = 456;
  rec.Warn("recovery", "second");

  const auto entries = rec.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].tick, 123u);
  EXPECT_EQ(entries[0].kind, Kind::kEvent);
  EXPECT_EQ(entries[0].level, LogLevel::kInfo);
  EXPECT_EQ(entries[0].component, "device");
  EXPECT_EQ(entries[0].message, "first");
  EXPECT_EQ(entries[1].tick, 456u);
  EXPECT_EQ(entries[1].level, LogLevel::kWarn);
}

TEST(LogTest, RingEvictsOldestButKeepsSequence) {
  Tick now = 0;
  FlightRecorder rec(&now, nullptr);
  const std::size_t total = FlightRecorder::kCapacity + 6;
  for (std::size_t i = 0; i < total; ++i) {
    rec.Info("ring", "entry " + std::to_string(i));
  }
  EXPECT_EQ(rec.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(rec.total_written(), total);
  // Oldest-first view of the newest kCapacity writes; seq survives
  // eviction.
  const auto entries = rec.Entries();
  ASSERT_EQ(entries.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(entries.front().seq, 6u);
  EXPECT_EQ(entries.front().message, "entry 6");
  EXPECT_EQ(entries.back().seq, total - 1);
}

TEST(LogTest, ToStringFormatsOneLinePerEntry) {
  Tick now = 1500;
  FlightRecorder rec(&now, nullptr);
  rec.Error("fault", "power cut");
  now = 2500;
  rec.Info("recovery", "replayed");
  const std::string dump = rec.Dump("manual");
  // Each breadcrumb renders as one line carrying its tick, level,
  // component and message.
  const auto line_of = [&dump](std::string_view needle) {
    const std::size_t at = dump.find(needle);
    EXPECT_NE(at, std::string::npos) << dump;
    const std::size_t begin = dump.rfind('\n', at) + 1;
    return dump.substr(begin, dump.find('\n', at) - begin);
  };
  const std::string first = line_of("power cut");
  EXPECT_NE(first.find("\"tick\": 1500"), std::string::npos) << first;
  EXPECT_NE(first.find("\"level\": \"ERROR\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"component\": \"fault\""), std::string::npos)
      << first;
  const std::string second = line_of("replayed");
  EXPECT_NE(second.find("\"tick\": 2500"), std::string::npos) << second;
  EXPECT_NE(second.find("\"level\": \"INFO\""), std::string::npos) << second;
  EXPECT_NE(first, second);
}

TEST(FlightRecorderTest, RingSaturatesAndKeepsNewestOldestFirst) {
  Tick now = 0;
  FlightRecorder rec(&now, nullptr);
  EXPECT_EQ(rec.size(), 0u);
  const std::uint64_t total = FlightRecorder::kCapacity + 10;
  for (std::uint64_t i = 1; i <= total; ++i) {
    now = 1000 * i;
    rec.RecordCommand(MakeCommand(i));
  }
  EXPECT_EQ(rec.size(), FlightRecorder::kCapacity);
  const auto entries = rec.Entries();
  ASSERT_EQ(entries.size(), FlightRecorder::kCapacity);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].kind, Kind::kCommand);
    EXPECT_EQ(entries[i].command.cmd_id, 11 + i);  // oldest first
    EXPECT_EQ(entries[i].seq, 10 + i);
    EXPECT_EQ(entries[i].tick, 1000 * (11 + i));
  }
}

// Commands and breadcrumbs share one seq order, and a slot that held a
// breadcrumb carries no stale text once a command overwrites it.
TEST(FlightRecorderTest, MixedKindsShareOneOrder) {
  Tick now = 10;
  FlightRecorder rec(&now, nullptr);
  rec.RecordCommand(MakeCommand(1));
  now = 20;
  rec.Error("fault", "power cut");
  now = 30;
  rec.RecordCommand(MakeCommand(2));

  auto entries = rec.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].kind, Kind::kCommand);
  EXPECT_EQ(entries[1].kind, Kind::kEvent);
  EXPECT_EQ(entries[1].message, "power cut");
  EXPECT_EQ(entries[2].kind, Kind::kCommand);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, i);
    EXPECT_EQ(entries[i].tick, 10 * (i + 1));
  }

  // Wrap the ring so the breadcrumb's slot is reused by a command.
  for (std::size_t i = 0; i < FlightRecorder::kCapacity; ++i) {
    rec.RecordCommand(MakeCommand(100 + i));
  }
  for (const auto& e : rec.Entries()) {
    EXPECT_EQ(e.kind, Kind::kCommand);
    EXPECT_TRUE(e.message.empty());
  }
}

TEST(FlightRecorderTest, BreachRulesMatchConfig) {
  Tick now = 0;
  FlightRecorder rec(&now, nullptr);
  FlightRecorder::Options options;
  options.slo_exec_ns = 1000;
  options.dump_on_busy = true;
  rec.set_options(options);

  FlightRecorder::Command fast = MakeCommand(1);
  fast.exec_ns = 999;
  rec.RecordCommand(fast);
  EXPECT_EQ(rec.trips(), 0u);

  FlightRecorder::Command slow = MakeCommand(2);
  slow.exec_ns = 1001;
  rec.RecordCommand(slow);
  EXPECT_EQ(rec.trips(), 1u);
  EXPECT_NE(rec.last_dump().find("\"reason\": \"slo_exec\""),
            std::string::npos);

  FlightRecorder::Command busy = MakeCommand(3);
  busy.status = StatusCode::kBusy;
  rec.RecordCommand(busy);
  EXPECT_EQ(rec.trips(), 2u);
  EXPECT_NE(rec.last_dump().find("\"reason\": \"busy\""), std::string::npos);

  // No rules set: nothing trips, not even errors.
  FlightRecorder rec_off(&now, nullptr);
  rec_off.RecordCommand(slow);
  rec_off.RecordCommand(busy);
  EXPECT_EQ(rec_off.trips(), 0u);
}

TEST(FlightRecorderTest, DumpCarriesSnapshotAndEntries) {
  Tick now = 0;
  TelemetrySampler telemetry;  // sources answer even while disabled
  telemetry.AddSource("device", [](TelemetrySampler::Gauges* out) {
    out->emplace_back("util.dispatch.dispatch", 987);
  });
  FlightRecorder rec(&now, &telemetry);
  now = 1500;
  rec.RecordCommand(MakeCommand(41));
  rec.Error("fault", "power \"cut\"");
  rec.RecordCommand(MakeCommand(42));
  now = 123456;
  const std::string dump = rec.Dump("crash", "flush.between_appends");
  EXPECT_EQ(rec.trips(), 1u);
  EXPECT_EQ(rec.last_dump(), dump);
  EXPECT_NE(dump.find("\"reason\": \"crash\""), std::string::npos);
  EXPECT_NE(dump.find("\"tick\": 123456"), std::string::npos);
  EXPECT_NE(dump.find("\"crash_point\": \"flush.between_appends\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"util.dispatch.dispatch\": 987"), std::string::npos);
  EXPECT_NE(dump.find("\"cmd_id\": 41"), std::string::npos);
  EXPECT_NE(dump.find("\"cmd_id\": 42"), std::string::npos);
  // Breadcrumbs render with their level and component, escaped.
  EXPECT_NE(dump.find("\"tick\": 1500, \"kind\": \"event\", \"level\": "
                      "\"ERROR\", \"component\": \"fault\", \"message\": "
                      "\"power \\\"cut\\\"\""),
            std::string::npos)
      << dump;
  // Entries appear in seq order.
  EXPECT_LT(dump.find("\"cmd_id\": 41"), dump.find("power"));
  EXPECT_LT(dump.find("power"), dump.find("\"cmd_id\": 42"));
}

}  // namespace
}  // namespace kvcsd::sim
