#include "sim/graph_executor.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/check.h"

namespace mpipe::sim {

namespace {

/// Shared state of one parallel graph run. Ready ops are handed out from a
/// mutex-guarded deque (ops are coarse — GEMMs, collectives — so queue
/// contention is negligible next to op bodies); dependency counts are
/// atomics so completions from different workers never serialise on the
/// lock while propagating.
struct ExecState {
  const OpGraph* graph = nullptr;
  std::vector<std::vector<int>> succ;
  std::vector<std::atomic<int>> pending;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> ready;
  int done = 0;
  int total = 0;
  std::atomic<bool> cancelled{false};
  std::once_flag error_once;
  std::exception_ptr error;
  /// Profile sink; null when profiling is off. Recording is a store into
  /// the op's own pre-sized slot, so concurrent drains never contend.
  ExecutionProfile* profile = nullptr;

  explicit ExecState(int n) : pending(static_cast<std::size_t>(n)) {}

  /// Runs ops until every op in the graph has completed. Any thread may
  /// drain; all of them exit once `done == total`. `worker` is the drain
  /// loop's identity for the profile (0 = caller, 1..k = pool helpers).
  void drain(int worker) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return !ready.empty() || done == total; });
      if (ready.empty()) return;  // done == total: nothing left to run
      const int id = ready.front();
      ready.pop_front();
      lock.unlock();

      const Op& op = graph->op(id);
      // After a failure the remaining ops are cancelled: their closures
      // are skipped but dependency counts still propagate, so the run
      // always terminates and can rethrow the first error. Cancelled ops
      // are not recorded — the profile shows what actually executed.
      if (!cancelled.load(std::memory_order_acquire)) {
        const std::int64_t start_ns =
            profile ? ExecutionProfile::now_ns() : 0;
        if (op.fn) {
          try {
            op.fn();
          } catch (...) {
            std::call_once(error_once,
                           [this] { error = std::current_exception(); });
            cancelled.store(true, std::memory_order_release);
          }
        }
        if (profile) {
          profile->record(id, worker, start_ns, ExecutionProfile::now_ns());
        }
      }

      std::vector<int> newly_ready;
      for (int next : succ[static_cast<std::size_t>(id)]) {
        if (pending[static_cast<std::size_t>(next)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          newly_ready.push_back(next);
        }
      }

      lock.lock();
      for (int next : newly_ready) ready.push_back(next);
      ++done;
      // Wake helpers for any extra ready ops, and everyone on completion.
      if (done == total || newly_ready.size() > 1) {
        cv.notify_all();
      } else if (newly_ready.size() == 1 && !ready.empty()) {
        cv.notify_one();
      }
    }
  }
};

std::string access_list(const std::vector<BufferAccess>& v) {
  std::ostringstream os;
  for (const BufferAccess& a : v) {
    os << " [" << a.id << " +" << a.begin << ".." << a.end << ")";
  }
  return os.str();
}

bool any_overlap(const std::vector<BufferAccess>& a,
                 const std::vector<BufferAccess>& b) {
  for (const BufferAccess& x : a) {
    for (const BufferAccess& y : b) {
      if (x.overlaps(y)) return true;
    }
  }
  return false;
}

}  // namespace

void run_graph_serial(const OpGraph& graph, ExecutionProfile* profile) {
  if (profile) profile->begin(graph.size());
  for (int id : graph.topo_order()) {
    const Op& op = graph.op(id);
    const std::int64_t start_ns = profile ? ExecutionProfile::now_ns() : 0;
    if (op.fn) op.fn();
    if (profile) {
      profile->record(id, /*worker=*/0, start_ns,
                      ExecutionProfile::now_ns());
    }
  }
}

void run_graph_parallel(const OpGraph& graph, ThreadPool& pool,
                        ExecutionProfile* profile) {
  const int total = graph.size();
  if (total == 0) {
    if (profile) profile->begin(0);
    return;
  }
  if (pool.in_worker() || pool.size() <= 1 || total == 1) {
    // From a pool worker, queueing sub-tasks the blocked parent waits on
    // could starve the pool; with one worker (or one op) there is nothing
    // to overlap. Degrade to the reference order — bitwise identical by
    // construction.
    run_graph_serial(graph, profile);
    return;
  }

  auto state = std::make_shared<ExecState>(total);
  state->graph = &graph;
  OpGraph::DependencyView view = graph.dependency_view();
  state->succ = std::move(view.successors);
  state->total = total;
  if (profile) {
    profile->begin(total);
    state->profile = profile;
  }
  for (int id = 0; id < total; ++id) {
    state->pending[static_cast<std::size_t>(id)].store(
        view.in_degree[static_cast<std::size_t>(id)],
        std::memory_order_relaxed);
    if (view.in_degree[static_cast<std::size_t>(id)] == 0) {
      state->ready.push_back(id);
    }
  }
  MPIPE_CHECK(!state->ready.empty(),
              "op graph has no source op (cycle?) — validate() first");

  const std::size_t helpers =
      std::min(pool.size(), static_cast<std::size_t>(total) - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    const int worker = static_cast<int>(h) + 1;
    pool.post([state, worker] { state->drain(worker); });
  }
  state->drain(/*worker=*/0);
  // Move the error out before rethrowing: a pool helper may still hold the
  // last reference to `state`, and its ~ExecState must not release the
  // exception object the caller is reading.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    error = std::move(state->error);
  }
  if (error) std::rethrow_exception(error);
}

void validate_hazards(const OpGraph& graph) {
  const int n = graph.size();
  std::vector<int> functional;
  for (const Op& op : graph.ops()) {
    if (op.fn) functional.push_back(op.id);
  }
  if (functional.size() <= 1) return;  // a lone closure cannot race

  // Reachability over explicit deps + stream FIFO edges, as one bitset row
  // per op, filled in topological order: reach[v] accumulates every
  // ancestor of v. topo_order() also proves acyclicity first.
  const std::vector<int> order = graph.topo_order();
  const OpGraph::DependencyView view = graph.dependency_view();
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> reach(static_cast<std::size_t>(n) * words, 0);
  for (int u : order) {
    const std::uint64_t* ru = &reach[static_cast<std::size_t>(u) * words];
    for (int v : view.successors[static_cast<std::size_t>(u)]) {
      std::uint64_t* rv = &reach[static_cast<std::size_t>(v) * words];
      for (std::size_t w = 0; w < words; ++w) rv[w] |= ru[w];
      rv[static_cast<std::size_t>(u) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(u) % 64);
    }
  }
  auto is_ancestor = [&](int a, int b) {
    return (reach[static_cast<std::size_t>(b) * words +
                  static_cast<std::size_t>(a) / 64] >>
            (static_cast<std::size_t>(a) % 64)) &
           1u;
  };

  for (std::size_t i = 0; i < functional.size(); ++i) {
    for (std::size_t j = i + 1; j < functional.size(); ++j) {
      const Op& a = graph.op(functional[i]);
      const Op& b = graph.op(functional[j]);
      if (is_ancestor(a.id, b.id) || is_ancestor(b.id, a.id)) continue;
      // a and b may run at the same time.
      for (const Op* op : {&a, &b}) {
        MPIPE_CHECK(!op->reads.empty() || !op->writes.empty(),
                    "hazard validation: op '" + op->label +
                        "' has a functional closure but declares no "
                        "read/write buffer accesses, and is unordered "
                        "against '" +
                        (op == &a ? b.label : a.label) +
                        "' — an undeclared closure cannot be proven safe "
                        "for concurrent execution");
      }
      const bool war_or_waw = any_overlap(a.writes, b.writes) ||
                              any_overlap(a.writes, b.reads) ||
                              any_overlap(b.writes, a.reads);
      MPIPE_CHECK(
          !war_or_waw,
          "hazard validation: ops '" + a.label + "' and '" + b.label +
              "' are unordered (no dependency path, different streams) but "
              "touch overlapping memory — a WAR/WAW/RAW edge is missing.\n  " +
              a.label + " writes:" + access_list(a.writes) + "\n  " +
              b.label + " writes:" + access_list(b.writes));
    }
  }
}

}  // namespace mpipe::sim
