#pragma once
/// \file p2p.h
/// Point-to-point transfers. FasterMoE's split-by-N pipelining (paper
/// Fig 5a) decomposes each AllToAll into chains of these; every send pays
/// its own launch latency and the destination's comm stream serialises the
/// arrivals — the fragmentation penalty §III-B describes.

#include <string>
#include <vector>

#include "comm/all_to_all.h"
#include "comm/process_group.h"

namespace mpipe::comm {

/// One P2P transfer moving several row blocks between the same endpoint
/// pair (a fragment of a decomposed AllToAll). All segments must agree on
/// src_device/dst_device.
int send_recv_multi(sim::OpGraph& graph, const ProcessGroup& group,
                    std::vector<RowSegment> segments, std::string label,
                    std::vector<int> deps);

/// Timing-only P2P of `bytes` between two devices.
int send_recv_timed(sim::OpGraph& graph, const ProcessGroup& group,
                    int src_device, int dst_device, std::uint64_t bytes,
                    std::string label, std::vector<int> deps);

}  // namespace mpipe::comm
