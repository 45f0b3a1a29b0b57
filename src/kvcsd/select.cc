// In-device query pushdown (DESIGN.md §13): SELECT with value predicates
// and byte-range projection, plus count/min/max/sum aggregation — the
// paper's Fig. 12 selectivity win taken to its conclusion. The host ships
// a predicate descriptor; the device scans, filters, and either trims
// each surviving record to the projected byte range or folds everything
// into four scalars, so host-visible bytes scale with selectivity (or
// stay constant), never with dataset size.
//
// Row collection deliberately reuses QueryRange, the one range scan:
// pushdown scans inherit the delta merge with tombstone suppression, the
// index-block cache, the two-slot prefetch pipeline, and the
// deduped/coalesced gather fan-out for free, and any future change to
// scan semantics applies to pushdown automatically.
//
// Filtering is the SoC work the host does not pay, and it is spread over
// every SoC core: the collected rows are cut into fixed-size chunks, each
// charged on whichever core is free. The predicate, projection and fold
// themselves still run once, in scan order, so the answer (the aggregate
// sum included) does not depend on the core count.
#include <algorithm>
#include <bit>

#include "common/coding.h"
#include "kvcsd/device.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"
#include "sim/parallel.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// Rows per filter chunk. A constant, not derived from soc_cores, so chunk
// boundaries (and each chunk's cost rounding) are the same at every core
// count; only how many chunks run at once changes.
constexpr std::size_t kFilterChunkRows = 1024;

// Encoded width of a typed attribute; 0 for kBytes (any width is legal).
std::uint32_t TypedWidth(nvme::SecondaryKeyType type) {
  switch (type) {
    case nvme::SecondaryKeyType::kU32:
    case nvme::SecondaryKeyType::kI32:
    case nvme::SecondaryKeyType::kF32:
      return 4;
    case nvme::SecondaryKeyType::kU64:
    case nvme::SecondaryKeyType::kF64:
      return 8;
    case nvme::SecondaryKeyType::kBytes:
      return 0;
  }
  return 0;
}

Status ValidatePredicate(const nvme::ValuePredicate& pred) {
  if (pred.op == nvme::PredicateOp::kNone) return Status::Ok();
  const std::uint32_t width = TypedWidth(pred.type);
  if (width != 0) {
    if (pred.value_length != width) {
      return Status::InvalidArgument("predicate attribute length mismatch");
    }
    if (pred.operand.size() != width) {
      return Status::InvalidArgument("predicate operand width mismatch");
    }
  } else if (pred.value_length == 0) {
    return Status::InvalidArgument("bytes predicate needs a length");
  }
  return Status::Ok();
}

Status ValidateAggregate(const nvme::AggregateSpec& agg) {
  if (agg.func == nvme::AggregateFunc::kNone) {
    return Status::InvalidArgument("aggregate command without a function");
  }
  if (agg.func == nvme::AggregateFunc::kCount) return Status::Ok();
  const std::uint32_t width = TypedWidth(agg.type);
  if (width == 0) {
    return Status::InvalidArgument("min/max/sum need a numeric attribute");
  }
  if (agg.value_length != width) {
    return Status::InvalidArgument("aggregate attribute length mismatch");
  }
  return Status::Ok();
}

// memcmp verdict -> predicate verdict.
bool ApplyOp(int cmp, nvme::PredicateOp op) {
  switch (op) {
    case nvme::PredicateOp::kNone:
      return true;
    case nvme::PredicateOp::kEq:
      return cmp == 0;
    case nvme::PredicateOp::kNe:
      return cmp != 0;
    case nvme::PredicateOp::kLt:
      return cmp < 0;
    case nvme::PredicateOp::kLe:
      return cmp <= 0;
    case nvme::PredicateOp::kGt:
      return cmp > 0;
    case nvme::PredicateOp::kGe:
      return cmp >= 0;
  }
  return false;
}

// Decodes a raw little-endian attribute into the accumulator domain.
// kBytes never reaches here (rejected by ValidateAggregate).
double DecodeAttribute(const Slice& raw, nvme::SecondaryKeyType type) {
  switch (type) {
    case nvme::SecondaryKeyType::kU32:
      return static_cast<double>(DecodeFixed32(raw.data()));
    case nvme::SecondaryKeyType::kU64:
      return static_cast<double>(DecodeFixed64(raw.data()));
    case nvme::SecondaryKeyType::kI32:
      return static_cast<double>(
          static_cast<std::int32_t>(DecodeFixed32(raw.data())));
    case nvme::SecondaryKeyType::kF32:
      return static_cast<double>(
          std::bit_cast<float>(DecodeFixed32(raw.data())));
    case nvme::SecondaryKeyType::kF64:
      return std::bit_cast<double>(DecodeFixed64(raw.data()));
    case nvme::SecondaryKeyType::kBytes:
      break;
  }
  return 0.0;
}

}  // namespace

sim::Task<Status> Device::QueryPushdown(Keyspace* ks,
                                        const nvme::Command& cmd,
                                        nvme::Completion* out) {
  const bool aggregate = cmd.opcode == nvme::Opcode::kKvAggregate;
  if (aggregate) {
    KVCSD_CO_RETURN_IF_ERROR(ValidateAggregate(cmd.agg));
    if (cmd.proj.enabled) {
      co_return Status::InvalidArgument("projection is a select feature");
    }
  } else if (cmd.agg.func != nvme::AggregateFunc::kNone) {
    co_return Status::InvalidArgument("aggregate spec on a select command");
  }
  KVCSD_CO_RETURN_IF_ERROR(ValidatePredicate(cmd.pred));

  sim::TraceSpan span(sim_, trk_query_, aggregate ? "aggregate" : "select");

  // A predicate can match anywhere in the scan range, so a predicated
  // scan runs unbounded and cmd.limit cuts *matches* below; without one
  // every row matches, so the scan itself stops at cmd.limit. Rows come
  // back (primary key, full value) in a deterministic order: primary-key
  // order for primary scans, (skey, pkey) order for index-driven ones —
  // the order the aggregate accumulates in.
  std::vector<std::pair<std::string, std::string>> rows;
  const bool via_sidx = !cmd.sidx.name.empty();
  KVCSD_CO_RETURN_IF_ERROR(co_await QueryRange(
      ks, via_sidx ? &cmd.sidx.name : nullptr, cmd.key, cmd.key_end,
      cmd.pred.op == nvme::PredicateOp::kNone ? cmd.limit : 0, &rows,
      sim::Activity::kPushdown));
  if (CrashPoint("select.mid_scan")) {
    co_return Status::IoError("simulated power loss (mid select scan)");
  }

  // The filter streams every gathered value byte through the SoC cores —
  // same rate class as secondary-key extraction — plus fixed per-record
  // handling. This is the CPU the host does NOT pay. Each chunk holds one
  // core for its own bytes and rows, and up to soc_cores chunks run at
  // once.
  std::uint64_t bytes_scanned = 0;
  const std::size_t chunks =
      (rows.size() + kFilterChunkRows - 1) / kFilterChunkRows;
  auto filter_chunk = [&](std::size_t c) -> sim::Task<Status> {
    const std::size_t begin = c * kFilterChunkRows;
    const std::size_t end = std::min(rows.size(), begin + kFilterChunkRows);
    std::uint64_t bytes = 0;
    for (std::size_t i = begin; i < end; ++i) bytes += rows[i].second.size();
    bytes_scanned += bytes;
    co_await cpu_.Compute(
        TransferTicks(bytes, config_.costs.extract_bytes_per_sec) +
            static_cast<Tick>(end - begin) * config_.costs.kv_op_fixed,
        sim::Activity::kPushdown);
    co_return Status::Ok();
  };
  KVCSD_CO_RETURN_IF_ERROR(co_await sim::ParallelFor(
      sim_, chunks, config_.soc_cores, filter_chunk));

  nvme::SecondaryIndexSpec pred_spec;
  pred_spec.value_offset = cmd.pred.value_offset;
  pred_spec.value_length = cmd.pred.value_length;
  pred_spec.type = cmd.pred.type;

  nvme::AggregateResult agg;
  std::uint64_t matched = 0;
  std::uint64_t short_values = 0;
  std::uint64_t bytes_returned = 0;
  Status verdict = Status::Ok();
  for (auto& [key, value] : rows) {
    if (cmd.pred.op != nvme::PredicateOp::kNone) {
      Slice attr;
      if (!wire::ExtractAttribute(Slice(value), cmd.pred.value_offset,
                                  cmd.pred.value_length, &attr)) {
        ++short_values;  // too short to hold the attribute: never matches
        continue;
      }
      auto encoded = nvme::EncodeSecondaryKeyBytes(attr, pred_spec);
      if (!encoded.ok()) {
        verdict = encoded.status();
        break;
      }
      if (!ApplyOp(encoded->compare(cmd.pred.operand), cmd.pred.op)) {
        continue;
      }
    }
    ++matched;
    if (aggregate) {
      if (cmd.agg.func != nvme::AggregateFunc::kCount) {
        Slice attr;
        if (!wire::ExtractAttribute(Slice(value), cmd.agg.value_offset,
                                    cmd.agg.value_length, &attr)) {
          ++short_values;  // counted in rows, excluded from min/max/sum
        } else {
          const double v = DecodeAttribute(attr, cmd.agg.type);
          if (!agg.valid) {
            agg.min = agg.max = v;
            agg.valid = true;
          } else {
            agg.min = std::min(agg.min, v);
            agg.max = std::max(agg.max, v);
          }
          agg.sum += v;  // scan order: bit-reproducible by the host model
        }
      }
    } else {
      Slice projected =
          cmd.proj.enabled
              ? wire::ClampProjection(Slice(value), cmd.proj.offset,
                                      cmd.proj.length)
              : Slice(value);
      bytes_returned += key.size() + projected.size();
      out->results.emplace_back(std::move(key), projected.ToString());
    }
    if (cmd.limit != 0 && matched >= cmd.limit) break;
  }
  KVCSD_CO_RETURN_IF_ERROR(verdict);

  if (aggregate && cmd.agg.func != nvme::AggregateFunc::kCount) {
    // The chunks above filter and decode in parallel, but a parallel
    // floating-point sum would depend on how the rows were split. The
    // device folds the matched values on one core in scan order instead,
    // which keeps min/max/sum bit-identical to a host fold of the same
    // rows; charge that pass over one double per match.
    co_await cpu_.ComputeBytes(matched * sizeof(double),
                               config_.costs.extract_bytes_per_sec,
                               sim::Activity::kPushdown);
  }

  if (aggregate) {
    agg.rows = matched;
    if (cmd.agg.func == nvme::AggregateFunc::kCount) agg.valid = matched > 0;
    out->agg = agg;
    out->has_agg = true;
    out->count = matched;
    bytes_returned = 32;  // the scalars — independent of matched rows
  } else {
    out->count = out->results.size();
  }

  stats().counter("device.select.rows_scanned").Add(rows.size());
  stats().counter("device.select.rows_matched").Add(matched);
  stats().counter("device.select.bytes_scanned").Add(bytes_scanned);
  stats().counter("device.select.bytes_returned").Add(bytes_returned);
  stats().counter("device.select.short_values").Add(short_values);
  stats()
      .counter(aggregate ? "device.cmd.kv_aggregate.rows"
                         : "device.cmd.kv_select.rows")
      .Add(matched);

  span.Arg("src", via_sidx ? "sidx" : "primary");
  span.Arg("rows_scanned", rows.size());
  span.Arg("rows_matched", matched);
  span.Arg("bytes_scanned", bytes_scanned);
  span.Arg("bytes_returned", bytes_returned);
  co_return Status::Ok();
}

}  // namespace kvcsd::device
