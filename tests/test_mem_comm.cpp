// Memory subsystem (tracker, allocator RAII, OOM, ring pools, staging) and
// the functional collectives (byte-exact movement, reductions).

#include <gtest/gtest.h>

#include "common/check.h"

#include "comm/all_to_all.h"
#include "comm/collectives.h"
#include "comm/p2p.h"
#include "common/units.h"
#include "mem/buffer_pool.h"
#include "mem/device_allocator.h"
#include "mem/host_staging.h"
#include "tensor/random_init.h"

namespace mpipe {
namespace {

using mem::Category;

TEST(MemoryTracker, PeaksTrackConcurrentTotals) {
  mem::MemoryTracker t;
  t.allocate(Category::kActivation, 100);
  t.allocate(Category::kTempBuffer, 50);
  EXPECT_EQ(t.peak_total(), 150u);
  t.release(Category::kActivation, 100);
  t.allocate(Category::kTempBuffer, 60);
  // Peak of the sum (150) != sum of category peaks (100 + 110).
  EXPECT_EQ(t.peak_total(), 150u);
  EXPECT_EQ(t.peak(Category::kTempBuffer), 110u);
  EXPECT_EQ(t.current_total(), 110u);
}

TEST(MemoryTracker, UnderflowThrows) {
  mem::MemoryTracker t;
  t.allocate(Category::kComm, 10);
  EXPECT_THROW(t.release(Category::kComm, 20), CheckError);
  EXPECT_THROW(t.release(Category::kActivation, 1), CheckError);
}

TEST(MemoryTracker, ResetPeaksKeepsCurrent) {
  mem::MemoryTracker t;
  t.allocate(Category::kActivation, 100);
  t.release(Category::kActivation, 60);
  t.reset_peaks();
  EXPECT_EQ(t.peak(Category::kActivation), 40u);
  EXPECT_EQ(t.current(Category::kActivation), 40u);
}

TEST(DeviceAllocator, RaiiReleasesOnDestruction) {
  mem::DeviceAllocator alloc(0);
  {
    auto a = alloc.allocate(Category::kActivation, 100);
    EXPECT_EQ(alloc.tracker().current_total(), 100u);
    auto moved = std::move(a);
    EXPECT_EQ(alloc.tracker().current_total(), 100u);
  }
  EXPECT_EQ(alloc.tracker().current_total(), 0u);
  EXPECT_EQ(alloc.tracker().peak_total(), 100u);
}

TEST(DeviceAllocator, CapacityEnforced) {
  mem::DeviceAllocator alloc(0, 1000);
  auto a = alloc.allocate(Category::kActivation, 800);
  EXPECT_THROW(alloc.allocate(Category::kActivation, 300),
               mem::OutOfMemoryError);
  a.release();
  EXPECT_NO_THROW(alloc.allocate(Category::kActivation, 300));
}

TEST(DeviceAllocator, VirtualTensorsAccountWithoutStorage) {
  mem::DeviceAllocator alloc(0);
  auto t = alloc.alloc_tensor(Shape{1024, 1024}, Category::kActivation,
                              /*materialize=*/false);
  EXPECT_FALSE(t.tensor.defined());
  EXPECT_EQ(alloc.tracker().current_total(), 4u * 1024 * 1024);
}

TEST(BufferPool, SlotAliasingFollowsDepth) {
  mem::DeviceAllocator alloc(0);
  mem::BufferPool pool(&alloc, {8, 8}, 4, Category::kActivation);
  EXPECT_TRUE(pool.aliases(0, 2));
  EXPECT_TRUE(pool.aliases(1, 3));
  EXPECT_FALSE(pool.aliases(0, 1));
  pool.slot(0).fill(7.0f);
  EXPECT_FLOAT_EQ(pool.slot(2).at(0, 0), 7.0f);  // same physical slot
  EXPECT_FLOAT_EQ(pool.slot(1).at(0, 0), 0.0f);
  EXPECT_EQ(pool.bytes(), 2u * 8 * 4 * 4);
}

TEST(BufferPool, PartitionMapsToSlotModuloDepth) {
  mem::DeviceAllocator alloc(0);
  mem::BufferPool pool(&alloc, {1, 2, 3}, 4, Category::kActivation);
  ASSERT_EQ(pool.depth(), 3);
  for (int p = 0; p < 10; ++p) {
    EXPECT_EQ(pool.slot_id(p), p % 3);
    EXPECT_EQ(&pool.slot(p), &pool.slot(p % 3));
    EXPECT_EQ(pool.slot(p).dim(0), p % 3 + 1);
  }
}

TEST(BufferPool, PerSlotRowsAccountExactlyAtTheirDtype) {
  // One slot per partition at that partition's rows: the pool accounts
  // sum(rows) * cols elements at the wire dtype, and int8 one fp32 scale
  // per row on top.
  const std::vector<std::int64_t> rows = {5, 1, 12, 7};
  const std::int64_t cols = 6;
  const std::uint64_t total_rows = 5 + 1 + 12 + 7;
  const std::uint64_t elements = total_rows * 6;
  const std::pair<DType, std::uint64_t> cases[] = {
      {DType::kF32, elements * 4},
      {DType::kBF16, elements * 2},
      {DType::kI8, elements + total_rows * 4},
  };
  mem::DeviceAllocator alloc(0);
  for (const auto& [dt, want] : cases) {
    {
      mem::BufferPool pool(&alloc, rows, cols, Category::kTempBuffer,
                           /*materialize=*/false, dt);
      EXPECT_EQ(pool.bytes(), want) << to_string(dt);
      EXPECT_EQ(alloc.tracker().current(Category::kTempBuffer), want);
    }
    EXPECT_EQ(alloc.tracker().current_total(), 0u);
  }
}

TEST(BufferPool, UntrackedPoolAddressesSlotsWithoutAccounting) {
  // No allocator: the slots are real tensors that carry no allocation.
  // (Baselines.FastMoETempPeakIsTheEagerFreeWalk checks the trackers of a
  // layer whose gradient scratch is such a pool.)
  mem::BufferPool pool(nullptr, {3, 5}, 4, Category::kTempBuffer);
  EXPECT_EQ(pool.slot(1).dim(0), 5);
  pool.slot(0).fill(2.0f);
  EXPECT_FLOAT_EQ(pool.slot(2).at(2, 3), 2.0f);
  EXPECT_EQ(pool.bytes(), 0u);
}

TEST(BufferPool, StorageBackedSlotsPersistAndAccountPerPool) {
  // A SlotStorage outlives its pools: each layout takes slots back to back
  // from one buffer, which a smaller layout reuses (stale rows included)
  // and a larger one reallocates. The accounting is an unbacked pool's and
  // leaves with the pool.
  mem::DeviceAllocator alloc(0);
  mem::SlotStorage storage;
  const float* base = nullptr;
  storage.begin((8 + 6) * 4);
  {
    mem::BufferPool pool(&alloc, {8, 6}, 4, Category::kActivation, true,
                         DType::kF32, &storage);
    EXPECT_EQ(alloc.tracker().current_total(), (8u + 6u) * 4 * 4);
    base = pool.slot(0).data();
    EXPECT_EQ(pool.slot(1).data(), base + 8 * 4);
    pool.slot(0).fill(3.0f);
  }
  EXPECT_EQ(alloc.tracker().current_total(), 0u);
  storage.begin(5 * 4 + 2 * 8);
  {
    mem::BufferPool pool(&alloc, {5}, 4, Category::kActivation, true,
                         DType::kBF16, &storage);
    mem::BufferPool wide(&alloc, {2}, 8, Category::kActivation, true,
                         DType::kF32, &storage);
    EXPECT_EQ(pool.bytes(), 5u * 4 * 2);
    EXPECT_EQ(pool.slot(0).data(), base);
    EXPECT_FLOAT_EQ(pool.slot(0).at(4, 3), 3.0f);  // not cleared
    EXPECT_EQ(wide.slot(0).data(), base + 5 * 4);
    EXPECT_EQ(wide.slot(0).dim(1), 8);
    // The layout is full: a further slot is refused, and its pool unwinds
    // the accounting it took.
    EXPECT_THROW(mem::BufferPool(&alloc, {1}, 4, Category::kActivation, true,
                                 DType::kF32, &storage),
                 CheckError);
    EXPECT_EQ(alloc.tracker().current_total(), 5u * 4 * 2 + 2u * 8 * 4);
  }
  storage.begin(100 * 4);
  mem::BufferPool big(&alloc, {100}, 4, Category::kActivation, true,
                      DType::kF32, &storage);
  big.slot(0).at(99, 3) = 1.0f;  // the grown buffer holds the whole slot
  EXPECT_EQ(big.slot(0).dim(0), 100);
}

TEST(BufferPool, AccountingOnlyPoolRefusesSlotAccess) {
  mem::DeviceAllocator alloc(0);
  mem::BufferPool pool(&alloc, {8}, 4, Category::kTempBuffer,
                       /*materialize=*/false);
  EXPECT_EQ(alloc.tracker().current(Category::kTempBuffer), 8u * 4 * 4);
  EXPECT_THROW(pool.slot(0), CheckError);
}

TEST(HostStaging, RoundTripIsByteExact) {
  mem::HostStaging staging;
  Rng rng(4);
  Tensor t(Shape{5, 3});
  init_normal(t, rng, 1.0f);
  mem::HostStaging::Slot& slot = staging.slot(1, mem::Stash::kTdi, 0);
  staging.store(slot, t, 4);  // rows [0, 4) only
  EXPECT_EQ(staging.entries(), 1u);
  EXPECT_EQ(staging.bytes_stored(), 4u * 3 * 4);
  Tensor back = Tensor::full(Shape{5, 3}, 7.0f);
  staging.restore(slot, back);
  for (std::int64_t r = 0; r < 5; ++r) {
    for (std::int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(back.at(r, c), r < 4 ? t.at(r, c) : 7.0f) << r << "," << c;
    }
  }
  // The restore consumed the slot.
  EXPECT_THROW(staging.restore(slot, back), CheckError);
  EXPECT_EQ(staging.bytes_stored(), 0u);
  EXPECT_EQ(staging.entries(), 0u);
}

TEST(HostStaging, CollisionThrowsAndLeavesAccountingUntouched) {
  mem::HostStaging staging;
  mem::HostStaging::Slot& slot = staging.slot(0, mem::Stash::kTdi, 0);
  staging.store(slot, Tensor(Shape{2, 5}), 2);
  // A silent overwrite used to mask double-stash bugs; a collision is loud
  // and the staged entry survives it.
  EXPECT_THROW(staging.store(slot, Tensor(Shape{4, 5}), 4), CheckError);
  EXPECT_EQ(staging.bytes_stored(), 40u);
  EXPECT_EQ(staging.entries(), 1u);
  // Distinct (device, stash, partition) slots never collide, and a slot's
  // address survives the table growing around it.
  std::vector<mem::HostStaging::Slot*> others = {
      &staging.slot(0, mem::Stash::kTm, 0),
      &staging.slot(0, mem::Stash::kTdi, 1),
      &staging.slot(1, mem::Stash::kTdi, 0),
      &staging.slot(3, mem::Stash::kTm, 5),
  };
  EXPECT_EQ(&staging.slot(0, mem::Stash::kTdi, 0), &slot);
  for (mem::HostStaging::Slot* other : others) {
    EXPECT_NE(other, &slot);
    staging.store(*other, Tensor(Shape{1, 5}), 1);
  }
  EXPECT_EQ(staging.entries(), 5u);
  EXPECT_EQ(staging.bytes_stored(), 40u + 4 * 20u);
  staging.clear();
  EXPECT_EQ(staging.entries(), 0u);
  EXPECT_EQ(staging.bytes_stored(), 0u);
  // A cleared slot takes a new store of a different size.
  staging.store(slot, Tensor(Shape{4, 5}), 3);
  EXPECT_EQ(staging.bytes_stored(), 60u);
}

// ---- collectives -----------------------------------------------------------

TEST(CommAllToAll, SegmentsMoveBytesExactly) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  Rng rng(1);
  Tensor src0(Shape{4, 2}), src1(Shape{4, 2});
  init_normal(src0, rng, 1.0f);
  init_normal(src1, rng, 1.0f);
  Tensor dst0(Shape{4, 2}), dst1(Shape{4, 2});

  std::vector<comm::RowSegment> segs;
  // Device 0 keeps rows 0-1, sends rows 2-3 to device 1; device 1 mirrors.
  segs.push_back({0, &src0, 0, 0, &dst0, 0, 2});
  segs.push_back({0, &src0, 2, 1, &dst1, 0, 2});
  segs.push_back({1, &src1, 0, 0, &dst0, 2, 2});
  segs.push_back({1, &src1, 2, 1, &dst1, 2, 2});
  EXPECT_EQ(comm::max_bytes_sent(segs), 2u * 2 * 4);

  sim::OpGraph g;
  comm::alltoall(g, world, segs, "a2a", {});
  cluster.run(g);
  EXPECT_FLOAT_EQ(max_abs_diff(dst0.slice_rows(0, 2), src0.slice_rows(0, 2)),
                  0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(dst1.slice_rows(0, 2), src0.slice_rows(2, 4)),
                  0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(dst0.slice_rows(2, 4), src1.slice_rows(0, 2)),
                  0.0f);
}

TEST(CommAllToAll, MaxBytesSentExcludesSelfSegments) {
  Tensor src(Shape{8, 4}), dst(Shape{8, 4});
  std::vector<comm::RowSegment> segs;
  // Local copies (src_device == dst_device) are free regardless of size.
  segs.push_back({0, &src, 0, 0, &dst, 0, 8});
  EXPECT_EQ(comm::max_bytes_sent(segs), 0u);
  // Remote rows count against the sender; busiest sender wins.
  segs.push_back({0, &src, 0, 1, &dst, 0, 2});  // dev 0 sends 2*4*4 = 32 B
  segs.push_back({1, &src, 0, 2, &dst, 0, 3});  // dev 1 sends 3*4*4 = 48 B
  segs.push_back({1, &src, 3, 0, &dst, 3, 2});  // dev 1 total 80 B
  EXPECT_EQ(comm::max_bytes_sent(segs), 5u * 4 * 4);
  EXPECT_EQ(comm::max_bytes_sent({}), 0u);
}

TEST(CommAllToAll, DurationDegenerateGroupPaysOnlyLaunchLatency) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  comm::ProcessGroup solo(cluster, {0});
  const double launch =
      cluster.cost_model().config().comm_launch_latency;
  // A one-rank "exchange" moves nothing over links, whatever the payload.
  EXPECT_DOUBLE_EQ(comm::alltoall_duration(solo, 0), launch);
  EXPECT_DOUBLE_EQ(comm::alltoall_duration(solo, 64 * MiB), launch);
}

TEST(CommAllToAll, DurationCompensatesPayloadFactor) {
  // alltoall_seconds models a symmetric exchange of bytes_per_device and
  // applies a (P-1)/P on-wire factor; alltoall_duration takes the payload
  // the busiest rank actually sends (self share already excluded) and
  // must invert that factor — the modelled time is launch + payload/bw,
  // independent of the group size used to get there.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  const double launch =
      cluster.cost_model().config().comm_launch_latency;
  for (int p = 2; p <= 4; ++p) {
    std::vector<int> devices;
    for (int d = 0; d < p; ++d) devices.push_back(d);
    comm::ProcessGroup group(cluster, devices);
    const double bw = cluster.topology().alltoall_bandwidth(devices);
    const std::uint64_t payload = 6 * MiB;  // divisible by 2 and 3
    const double expected = launch + static_cast<double>(payload) / bw;
    EXPECT_NEAR(comm::alltoall_duration(group, payload), expected,
                expected * 1e-9)
        << "group size " << p;
  }
}

TEST(CommAllToAll, TimedOpCarriesModeledDuration) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  sim::OpGraph g;
  const int id = comm::alltoall_timed(g, world, 3 * MiB, "a2a", {});
  EXPECT_DOUBLE_EQ(g.op(id).base_seconds,
                   comm::alltoall_duration(world, 3 * MiB));
  EXPECT_GT(g.op(id).base_seconds,
            cluster.cost_model().config().comm_launch_latency);
}

TEST(CommAllToAll, SecondsPastLaunchScaleWithBytes) {
  // The analytic model charges every payload the full link rate, so the
  // time past the launch latency is exactly proportional to the bytes.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  const double launch = cluster.cost_model().config().comm_launch_latency;
  const double small = comm::alltoall_duration(world, 8 * KiB) - launch;
  const double big = comm::alltoall_duration(world, 32 * MiB) - launch;
  EXPECT_NEAR(big / small, 4096.0, 1.0);
}

TEST(CommAllReduce, SumsAcrossRanks) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 3);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  std::vector<Tensor> grads;
  for (int d = 0; d < 3; ++d) {
    grads.push_back(Tensor::full(Shape{4}, static_cast<float>(d + 1)));
  }
  sim::OpGraph g;
  comm::allreduce_sum(g, world, {&grads[0], &grads[1], &grads[2]}, "ar", {});
  cluster.run(g);
  for (int d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(grads[static_cast<std::size_t>(d)].at(0), 6.0f);
  }
}

TEST(CommP2P, MultiSegmentTransfer) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 2);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  Rng rng(3);
  Tensor src(Shape{6, 2});
  init_normal(src, rng, 1.0f);
  Tensor dst(Shape{6, 2});
  std::vector<comm::RowSegment> segs;
  segs.push_back({0, &src, 0, 1, &dst, 4, 2});
  segs.push_back({0, &src, 4, 1, &dst, 0, 2});
  sim::OpGraph g;
  comm::send_recv_multi(g, world, segs, "p2p", {});
  cluster.run(g);
  EXPECT_FLOAT_EQ(max_abs_diff(dst.slice_rows(4, 6), src.slice_rows(0, 2)),
                  0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(dst.slice_rows(0, 2), src.slice_rows(4, 6)),
                  0.0f);
}

TEST(CommP2P, MismatchedEndpointsRejected) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 3);
  comm::ProcessGroup world = comm::ProcessGroup::world(cluster);
  Tensor a(Shape{2, 2}), b(Shape{2, 2});
  std::vector<comm::RowSegment> segs;
  segs.push_back({0, &a, 0, 1, &b, 0, 1});
  segs.push_back({0, &a, 1, 2, &b, 1, 1});  // different dst
  sim::OpGraph g;
  EXPECT_THROW(comm::send_recv_multi(g, world, segs, "bad", {}), CheckError);
}

TEST(ProcessGroup, RankMappingAndValidation) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  comm::ProcessGroup pg(cluster, {2, 0, 3});
  EXPECT_EQ(pg.size(), 3);
  EXPECT_EQ(pg.device_of_rank(0), 2);
  EXPECT_EQ(pg.rank_of_device(3), 2);
  EXPECT_THROW(pg.rank_of_device(1), CheckError);
  EXPECT_THROW(comm::ProcessGroup(cluster, {0, 0}), CheckError);
  EXPECT_THROW(comm::ProcessGroup(cluster, {9}), CheckError);
}

}  // namespace
}  // namespace mpipe
