// HealthMonitor: the mount's degraded-mode state machine.
//
//   kHealthy --> kDegraded --> kReadOnly
//
// Transitions are monotonic (state only worsens; Reset() is the explicit
// administrative re-enable, the moral equivalent of `mount -o remount,rw`):
//
//   kDegraded  - retry-exhausted transient/timeout faults, or corruption
//                the redundancy layer had to heal around. The mount keeps
//                serving reads AND writes; the state is a visible warning
//                that the substrate is misbehaving (hidden reads lean on
//                IDA decode-and-heal here).
//   kReadOnly  - a PERSISTENT-classed write/sync fault: the device said
//                writes will keep failing, so continuing to mutate risks
//                tearing on-disk state. Every subsequent mutating op is
//                rejected with FailedPrecondition before it starts; the
//                op that tripped the state aborts its open journal txn
//                through the journal's deferred-free machinery (TxnGuard's
//                abort path), leaving the ring clean for remount recovery.
//
// Thread-safety: the state is one atomic; Report* may be called from any
// device/completion thread, CheckWritable from any op thread.
#ifndef STEGFS_FAULT_HEALTH_H_
#define STEGFS_FAULT_HEALTH_H_

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"
#include "util/status.h"

namespace stegfs {
namespace fault {

enum class MountHealth : int {
  kHealthy = 0,
  kDegraded = 1,
  kReadOnly = 2,
};

const char* MountHealthName(MountHealth h);

class HealthMonitor {
 public:
  MountHealth state() const {
    return static_cast<MountHealth>(state_.load(std::memory_order_acquire));
  }
  const char* state_name() const { return MountHealthName(state()); }

  // A read/write retried to exhaustion on transient-classed faults.
  void ReportRetryExhausted() { Worsen(MountHealth::kDegraded); }
  // Corruption detected (and ideally healed) below the file layer.
  void ReportCorruption() { Worsen(MountHealth::kDegraded); }
  // A persistent-classed fault on the write/sync path: stop mutating.
  void ReportPersistentWriteFault() { Worsen(MountHealth::kReadOnly); }
  // A persistent-classed fault on the read path: reads may still be
  // served degraded (IDA decode), writes are not implicated.
  void ReportPersistentReadFault() { Worsen(MountHealth::kDegraded); }

  // OK unless the mount is read-only; mutating ops call this first.
  Status CheckWritable() {
    if (state() != MountHealth::kReadOnly) return Status::OK();
    rejected_writes_.Increment();
    return Status::FailedPrecondition(
        "volume is read-only: a persistent write fault tripped degraded "
        "mode (steg_health_reset to re-enable writes)");
  }

  // Administrative re-enable after the operator fixed the substrate.
  void Reset() {
    state_.store(static_cast<int>(MountHealth::kHealthy),
                 std::memory_order_release);
  }

  uint64_t readonly_transitions() const {
    return readonly_transitions_.value();
  }
  uint64_t rejected_writes() const { return rejected_writes_.value(); }

  void RegisterWith(obs::MetricsRegistry* reg) const {
    reg->RegisterCounter("stegfs_health_degraded_transitions_total",
                         "Transitions into the degraded state",
                         &degraded_transitions_);
    reg->RegisterCounter("stegfs_health_readonly_transitions_total",
                         "Transitions into the read-only state",
                         &readonly_transitions_);
    reg->RegisterCounter("stegfs_health_rejected_writes_total",
                         "Mutating ops rejected while read-only",
                         &rejected_writes_);
  }

 private:
  void Worsen(MountHealth target);

  std::atomic<int> state_{static_cast<int>(MountHealth::kHealthy)};
  obs::Counter degraded_transitions_;
  obs::Counter readonly_transitions_;
  obs::Counter rejected_writes_;
};

}  // namespace fault
}  // namespace stegfs

#endif  // STEGFS_FAULT_HEALTH_H_
