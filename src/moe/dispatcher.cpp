#include "moe/dispatcher.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace mpipe::moe {

const PartitionPlan& DispatchPlan::part(int p) const {
  MPIPE_EXPECTS(p >= 0 && p < static_cast<int>(parts.size()),
                "partition index out of range");
  return parts[static_cast<std::size_t>(p)];
}

std::vector<std::int64_t> Dispatcher::chunk_sizes(std::int64_t total, int n) {
  MPIPE_EXPECTS(total >= 0 && n >= 1, "bad chunking arguments");
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(n));
  const std::int64_t base = total / n;
  const std::int64_t rem = total % n;
  for (int i = 0; i < n; ++i) {
    sizes[static_cast<std::size_t>(i)] = base + (i < rem ? 1 : 0);
  }
  return sizes;
}

DispatchPlan Dispatcher::build(
    const std::vector<std::vector<std::int64_t>>& expert_of, int num_devices,
    int experts_per_device, int n_partitions) {
  MPIPE_EXPECTS(num_devices >= 1 && experts_per_device >= 1, "bad sizes");
  MPIPE_EXPECTS(static_cast<int>(expert_of.size()) == num_devices,
                "expert_of must cover every device");
  MPIPE_EXPECTS(n_partitions >= 1, "need at least one partition");
  const std::int64_t tokens = static_cast<std::int64_t>(expert_of[0].size());
  for (const auto& v : expert_of) {
    MPIPE_EXPECTS(static_cast<std::int64_t>(v.size()) == tokens,
                  "devices must hold equal token counts");
  }
  const int num_experts = num_devices * experts_per_device;

  DispatchPlan plan;
  plan.num_devices = num_devices;
  plan.experts_per_device = experts_per_device;
  plan.n_partitions = n_partitions;
  plan.tokens_per_device = tokens;
  plan.synthetic = false;

  const auto chunks = chunk_sizes(tokens, n_partitions);
  const auto devices = static_cast<std::size_t>(num_devices);
  std::int64_t begin = 0;
  for (int p = 0; p < n_partitions; ++p) {
    PartitionPlan part;
    part.chunk_begin = begin;
    part.chunk_rows = chunks[static_cast<std::size_t>(p)];
    part.src.resize(devices);
    // next[s * num_experts + e] counts source s's tokens for global expert
    // e, then becomes the receive row of the next such token.
    std::vector<std::int64_t> next(devices *
                                   static_cast<std::size_t>(num_experts));
    auto next_of = [&](int s, std::int64_t e) -> std::int64_t& {
      return next[static_cast<std::size_t>(s) *
                      static_cast<std::size_t>(num_experts) +
                  static_cast<std::size_t>(e)];
    };

    for (int d = 0; d < num_devices; ++d) {
      DeviceRouting& routing = part.src[static_cast<std::size_t>(d)];
      // Single allocation up front; iota + sort never reallocate.
      routing.order.resize(static_cast<std::size_t>(part.chunk_rows));
      std::iota(routing.order.begin(), routing.order.end(),
                part.chunk_begin);
      const auto& experts = expert_of[static_cast<std::size_t>(d)];
      std::stable_sort(routing.order.begin(), routing.order.end(),
                       [&](std::int64_t a, std::int64_t b) {
                         return experts[static_cast<std::size_t>(a)] <
                                experts[static_cast<std::size_t>(b)];
                       });
      routing.send_counts.assign(devices, 0);
      // The counting pass touches every token anyway, so expert ids are
      // validated here instead of in a separate O(tokens) pre-scan.
      for (std::int64_t row : routing.order) {
        const std::int64_t e = experts[static_cast<std::size_t>(row)];
        MPIPE_CHECK(e >= 0 && e < num_experts, "expert id out of range");
        ++routing.send_counts[static_cast<std::size_t>(e /
                                                       experts_per_device)];
        ++next_of(d, e);
      }
    }

    // Expert-major receive layout: each local expert's block holds its
    // sources in rank order.
    part.recv_rows.assign(devices, 0);
    part.expert_rows.assign(
        devices,
        std::vector<RowSpan>(static_cast<std::size_t>(experts_per_device)));
    for (int dst = 0; dst < num_devices; ++dst) {
      std::int64_t row = 0;
      for (int local = 0; local < experts_per_device; ++local) {
        RowSpan& span = part.expert_rows[static_cast<std::size_t>(dst)]
                                        [static_cast<std::size_t>(local)];
        span.offset = row;
        for (int s = 0; s < num_devices; ++s) {
          std::int64_t& slot = next_of(s, dst * experts_per_device + local);
          const std::int64_t count = slot;
          slot = row;
          row += count;
        }
        span.count = row - span.offset;
      }
      part.recv_rows[static_cast<std::size_t>(dst)] = row;
      plan.max_recv_rows = std::max(plan.max_recv_rows, row);
    }

    for (int d = 0; d < num_devices; ++d) {
      DeviceRouting& routing = part.src[static_cast<std::size_t>(d)];
      const auto& experts = expert_of[static_cast<std::size_t>(d)];
      routing.recv_row.reserve(routing.order.size());
      for (std::int64_t row : routing.order) {
        routing.recv_row.push_back(
            next_of(d, experts[static_cast<std::size_t>(row)])++);
      }
    }

    plan.parts.push_back(std::move(part));
    begin += chunks[static_cast<std::size_t>(p)];
  }
  return plan;
}

DispatchPlan Dispatcher::synthetic(std::int64_t tokens_per_device,
                                   int num_devices, int experts_per_device,
                                   int n_partitions, double skew) {
  MPIPE_EXPECTS(tokens_per_device >= 0, "negative token count");
  MPIPE_EXPECTS(num_devices >= 1 && experts_per_device >= 1, "bad sizes");
  MPIPE_EXPECTS(n_partitions >= 1, "need at least one partition");
  MPIPE_EXPECTS(skew >= 0.0 && skew < 1.0, "skew must be in [0, 1)");

  DispatchPlan plan;
  plan.num_devices = num_devices;
  plan.experts_per_device = experts_per_device;
  plan.n_partitions = n_partitions;
  plan.tokens_per_device = tokens_per_device;
  plan.synthetic = true;

  const auto chunks = chunk_sizes(tokens_per_device, n_partitions);
  std::int64_t begin = 0;
  for (int p = 0; p < n_partitions; ++p) {
    PartitionPlan part;
    part.chunk_begin = begin;
    part.chunk_rows = chunks[static_cast<std::size_t>(p)];
    part.src.resize(static_cast<std::size_t>(num_devices));
    part.recv_rows.assign(static_cast<std::size_t>(num_devices), 0);

    // Destination weights: device 0 absorbs `skew` of every sender's extra
    // traffic; the remainder spreads evenly.
    std::vector<double> weight(static_cast<std::size_t>(num_devices),
                               (1.0 - skew) / num_devices);
    weight[0] += skew;

    for (int d = 0; d < num_devices; ++d) {
      DeviceRouting& routing = part.src[static_cast<std::size_t>(d)];
      routing.send_counts.assign(static_cast<std::size_t>(num_devices), 0);
      // Largest-remainder apportionment: floor each ideal share, then hand
      // the leftover rows to the largest fractional parts. Dumping the
      // remainder on one destination would fabricate a hot spot at ragged
      // batch sizes.
      std::int64_t assigned = 0;
      std::vector<std::pair<double, int>> fractional;
      for (int j = 0; j < num_devices; ++j) {
        const double ideal = static_cast<double>(part.chunk_rows) *
                             weight[static_cast<std::size_t>(j)];
        const std::int64_t base = static_cast<std::int64_t>(ideal);
        routing.send_counts[static_cast<std::size_t>(j)] = base;
        assigned += base;
        fractional.emplace_back(-(ideal - static_cast<double>(base)), j);
      }
      std::sort(fractional.begin(), fractional.end());
      for (std::int64_t r = 0; r < part.chunk_rows - assigned; ++r) {
        ++routing.send_counts[static_cast<std::size_t>(
            fractional[static_cast<std::size_t>(r) % fractional.size()]
                .second)];
      }
      for (int j = 0; j < num_devices; ++j) {
        part.recv_rows[static_cast<std::size_t>(j)] +=
            routing.send_counts[static_cast<std::size_t>(j)];
      }
    }
    plan.max_recv_rows =
        std::max(plan.max_recv_rows,
                 *std::max_element(part.recv_rows.begin(),
                                   part.recv_rows.end()));
    plan.parts.push_back(std::move(part));
    begin += chunks[static_cast<std::size_t>(p)];
  }
  return plan;
}

}  // namespace mpipe::moe
