// Dispatch-plan invariants, parameterized over devices × experts ×
// partitions: conservation of tokens, the expert-major receive layout
// (spans and per-token receive rows), and synthetic-plan balance/skew.

#include <gtest/gtest.h>

#include "common/check.h"

#include "common/rng.h"
#include "moe/dispatcher.h"

namespace mpipe::moe {
namespace {

using mpipe::CheckError;

struct PlanCase {
  int devices;
  int experts_per_device;
  int partitions;
  std::int64_t tokens;
};

class DispatcherPlan : public testing::TestWithParam<PlanCase> {
 protected:
  DispatchPlan make_plan() {
    const auto& c = GetParam();
    Rng rng(c.devices * 100 + c.partitions);
    const int num_experts = c.devices * c.experts_per_device;
    std::vector<std::vector<std::int64_t>> expert_of(
        static_cast<std::size_t>(c.devices));
    for (auto& v : expert_of) {
      for (std::int64_t t = 0; t < c.tokens; ++t) {
        v.push_back(static_cast<std::int64_t>(
            rng.uniform_index(static_cast<std::uint64_t>(num_experts))));
      }
    }
    expert_of_ = expert_of;
    return Dispatcher::build(expert_of, c.devices, c.experts_per_device,
                             c.partitions);
  }

  std::vector<std::vector<std::int64_t>> expert_of_;
};

TEST_P(DispatcherPlan, ChunksCoverAllTokensExactlyOnce) {
  const auto plan = make_plan();
  const auto& c = GetParam();
  std::int64_t covered = 0;
  for (const auto& part : plan.parts) {
    EXPECT_EQ(part.chunk_begin, covered);
    covered += part.chunk_rows;
  }
  EXPECT_EQ(covered, c.tokens);
}

TEST_P(DispatcherPlan, SendCountsConserveTokens) {
  const auto plan = make_plan();
  const auto& c = GetParam();
  for (const auto& part : plan.parts) {
    for (int d = 0; d < c.devices; ++d) {
      const auto& routing = part.src[static_cast<std::size_t>(d)];
      std::int64_t sent = 0;
      for (std::int64_t cnt : routing.send_counts) sent += cnt;
      EXPECT_EQ(sent, part.chunk_rows);
      EXPECT_EQ(static_cast<std::int64_t>(routing.order.size()),
                part.chunk_rows);
    }
    // Receive totals match the sum of sends.
    std::int64_t total_sent = 0, total_recv = 0;
    for (int d = 0; d < c.devices; ++d) {
      total_recv += part.recv_rows[static_cast<std::size_t>(d)];
      for (std::int64_t cnt :
           part.src[static_cast<std::size_t>(d)].send_counts) {
        total_sent += cnt;
      }
    }
    EXPECT_EQ(total_sent, total_recv);
  }
}

TEST_P(DispatcherPlan, OrderIsSortedByExpertAndCoversChunk) {
  const auto plan = make_plan();
  const auto& c = GetParam();
  for (const auto& part : plan.parts) {
    for (int d = 0; d < c.devices; ++d) {
      const auto& routing = part.src[static_cast<std::size_t>(d)];
      const auto& experts = expert_of_[static_cast<std::size_t>(d)];
      for (std::size_t i = 1; i < routing.order.size(); ++i) {
        EXPECT_LE(experts[static_cast<std::size_t>(routing.order[i - 1])],
                  experts[static_cast<std::size_t>(routing.order[i])]);
      }
      for (std::int64_t row : routing.order) {
        EXPECT_GE(row, part.chunk_begin);
        EXPECT_LT(row, part.chunk_begin + part.chunk_rows);
      }
    }
  }
}

TEST_P(DispatcherPlan, ExpertRowsTileTheReceiveBuffer) {
  // Local experts' spans follow one another from row 0 to recv_rows.
  const auto plan = make_plan();
  const auto& c = GetParam();
  for (const auto& part : plan.parts) {
    for (int d = 0; d < c.devices; ++d) {
      const auto& spans = part.expert_rows[static_cast<std::size_t>(d)];
      ASSERT_EQ(static_cast<int>(spans.size()), c.experts_per_device);
      std::int64_t next = 0;
      for (const RowSpan& s : spans) {
        EXPECT_EQ(s.offset, next);
        EXPECT_GE(s.count, 0);
        next += s.count;
      }
      EXPECT_EQ(next, part.recv_rows[static_cast<std::size_t>(d)]);
    }
  }
}

TEST_P(DispatcherPlan, RecvRowsAreExpertMajor) {
  // Every routed token owns one receive row inside its expert's span, and
  // within a span the rows ascend with (source rank, position in order).
  const auto plan = make_plan();
  const auto& c = GetParam();
  for (const auto& part : plan.parts) {
    std::vector<std::vector<bool>> seen;
    for (std::int64_t rows : part.recv_rows) {
      seen.emplace_back(static_cast<std::size_t>(rows), false);
    }
    std::vector<std::int64_t> last(
        static_cast<std::size_t>(c.devices * c.experts_per_device), -1);
    for (int src = 0; src < c.devices; ++src) {
      const auto& routing = part.src[static_cast<std::size_t>(src)];
      ASSERT_EQ(routing.recv_row.size(), routing.order.size());
      for (std::size_t i = 0; i < routing.order.size(); ++i) {
        const std::int64_t e =
            expert_of_[static_cast<std::size_t>(src)]
                      [static_cast<std::size_t>(routing.order[i])];
        const auto dst = static_cast<std::size_t>(e / c.experts_per_device);
        const RowSpan& span =
            part.expert_rows[dst][static_cast<std::size_t>(
                e % c.experts_per_device)];
        const std::int64_t r = routing.recv_row[i];
        ASSERT_GE(r, span.offset);
        ASSERT_LT(r, span.offset + span.count);
        EXPECT_FALSE(seen[dst][static_cast<std::size_t>(r)])
            << "receive row assigned twice";
        seen[dst][static_cast<std::size_t>(r)] = true;
        EXPECT_GT(r, last[static_cast<std::size_t>(e)]);
        last[static_cast<std::size_t>(e)] = r;
      }
    }
    for (const auto& rows : seen) {
      for (bool s : rows) EXPECT_TRUE(s) << "receive row not owned";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DispatcherPlan,
    testing::Values(PlanCase{1, 1, 1, 8}, PlanCase{2, 1, 1, 16},
                    PlanCase{2, 4, 2, 17}, PlanCase{4, 1, 4, 64},
                    PlanCase{4, 2, 3, 50}, PlanCase{8, 8, 8, 128},
                    PlanCase{3, 5, 2, 31}, PlanCase{4, 16, 5, 19}),
    [](const auto& info) {
      return "P" + std::to_string(info.param.devices) + "e" +
             std::to_string(info.param.experts_per_device) + "n" +
             std::to_string(info.param.partitions) + "B" +
             std::to_string(info.param.tokens);
    });

TEST(DispatcherChunks, RemainderSpreadOverLeadingChunks) {
  const auto sizes = Dispatcher::chunk_sizes(10, 4);
  EXPECT_EQ(sizes, (std::vector<std::int64_t>{3, 3, 2, 2}));
  EXPECT_EQ(Dispatcher::chunk_sizes(0, 3),
            (std::vector<std::int64_t>{0, 0, 0}));
  EXPECT_THROW(Dispatcher::chunk_sizes(-1, 2), CheckError);
}

TEST(DispatcherSynthetic, BalancedCountsAndMaxRows) {
  const auto plan = Dispatcher::synthetic(64, 4, 1, 2);
  EXPECT_TRUE(plan.synthetic);
  for (const auto& part : plan.parts) {
    for (int d = 0; d < 4; ++d) {
      EXPECT_EQ(part.recv_rows[static_cast<std::size_t>(d)], 32);
    }
  }
  EXPECT_EQ(plan.max_recv_rows, 32);
}

TEST(DispatcherSynthetic, SkewConcentratesOnDeviceZero) {
  const auto plan = Dispatcher::synthetic(1024, 8, 1, 1, 0.3);
  const auto& part = plan.parts[0];
  EXPECT_GT(part.recv_rows[0], part.recv_rows[1] * 2);
  // All tokens still accounted for.
  std::int64_t total = 0;
  for (int d = 0; d < 8; ++d) {
    total += part.recv_rows[static_cast<std::size_t>(d)];
  }
  EXPECT_EQ(total, 1024 * 8);
  EXPECT_THROW(Dispatcher::synthetic(64, 4, 1, 1, 1.5), CheckError);
}

TEST(DispatcherValidation, RejectsBadExpertIds) {
  std::vector<std::vector<std::int64_t>> expert_of = {{0, 5}, {1, 2}};
  EXPECT_THROW(Dispatcher::build(expert_of, 2, 2, 1), CheckError);
  std::vector<std::vector<std::int64_t>> ragged = {{0, 1}, {1}};
  EXPECT_THROW(Dispatcher::build(ragged, 2, 2, 1), CheckError);
}

}  // namespace
}  // namespace mpipe::moe
