// GroupBarrier: a sync-coalescing rendezvous for write barriers.
//
// Every durability site in the stack ends the same way: flush what's
// dirty, fdatasync. Under multi-session load those
// syncs stack up back to back — N sessions hitting their commit barriers
// within one device-sync latency each pay for a full sync that the
// previous caller's sync would have covered. GroupBarrier collapses them:
// callers arrive at a *generation*; the first arrival runs the barrier
// function for everyone attached to that generation, later arrivals park
// until it completes and share its Status. A caller that arrives while a
// barrier is already IN FLIGHT attaches to the NEXT generation — its
// writes may have landed after the running sync was issued, so it must
// get a sync that starts after its arrival. That is the whole correctness
// argument: a generation's barrier function begins strictly after every
// member's arrival, so it covers all of their prior completed writes.
//
// The barrier function is supplied at construction (typically: cache
// write-back of unparked dirty blocks + device Sync) and
// runs on an arriving caller's thread — there is no dedicated thread and
// no timer; coalescing happens exactly when concurrency exists and adds
// zero latency when it doesn't.
#ifndef STEGFS_CONCURRENCY_GROUP_BARRIER_H_
#define STEGFS_CONCURRENCY_GROUP_BARRIER_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>

#include "obs/metrics.h"
#include "util/status.h"

namespace stegfs {
namespace concurrency {

class GroupBarrier {
 public:
  using BarrierFn = std::function<Status()>;

  explicit GroupBarrier(BarrierFn fn) : fn_(std::move(fn)) {}
  GroupBarrier(const GroupBarrier&) = delete;
  GroupBarrier& operator=(const GroupBarrier&) = delete;

  // Runs (or joins) one full write barrier covering every write completed
  // before this call. Blocks until a barrier that STARTED after this
  // call's arrival finishes; returns that barrier's Status.
  Status Arrive();

  // Coalescing observability: `arrivals` counts Arrive() calls, `rounds`
  // counts barrier-function executions. arrivals / rounds is the measured
  // coalescing factor (1.0 when single-threaded).
  uint64_t arrivals() const { return arrivals_.value(); }
  uint64_t rounds() const { return rounds_.value(); }

  void RegisterMetrics(obs::MetricsRegistry* reg) const {
    reg->RegisterCounter("stegfs_barrier_arrivals_total",
                         "Write-barrier arrivals (before coalescing)",
                         &arrivals_);
    reg->RegisterCounter("stegfs_barrier_rounds_total",
                         "Write-barrier rounds actually executed", &rounds_);
  }

 private:
  // One generation of attached waiters. Members hold the shared_ptr, so a
  // generation outlives the barrier's pending_ slot reset.
  struct Gen {
    bool done = false;
    Status status;
  };

  BarrierFn fn_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Gen> pending_;  // accepting generation (lazily created)
  bool running_ = false;          // a barrier round is in flight
  obs::Counter arrivals_;
  obs::Counter rounds_;
};

}  // namespace concurrency
}  // namespace stegfs

#endif  // STEGFS_CONCURRENCY_GROUP_BARRIER_H_
