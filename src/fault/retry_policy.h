// RetryPolicy: how the fault-tolerance decorator re-attempts transient
// faults. Exponential backoff with DETERMINISTIC seeded jitter —
// the jitter for attempt A of op O is a pure function of (seed, O, A), so
// two runs against identical fault schedules produce identical retry
// sequences (the determinism the chaos matrix asserts), while different
// ops still decorrelate (no thundering-herd resubmission on a shared
// backend).
#ifndef STEGFS_FAULT_RETRY_POLICY_H_
#define STEGFS_FAULT_RETRY_POLICY_H_

#include <cstdint>

#include "fault/error_taxonomy.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace stegfs {
namespace fault {

struct RetryPolicy {
  // Total tries including the first. 1 = no retries (pure classification).
  uint32_t max_attempts = 4;
  // Backoff before retry r (1-based) is base * multiplier^(r-1), jittered
  // into [1/2, 1] of that value, capped at max_backoff_ns.
  uint64_t base_backoff_ns = 200 * 1000;         // 200 us
  double backoff_multiplier = 2.0;
  uint64_t max_backoff_ns = 50 * 1000 * 1000;    // 50 ms
  // Budget for one op including every retry and sleep; once exceeded no
  // further attempt is made. 0 = unbounded.
  uint64_t op_deadline_ns = 2ull * 1000 * 1000 * 1000;  // 2 s
  // Jitter seed (deterministic; identical seeds => identical sequences).
  uint64_t jitter_seed = 0x5742;
};

// Backoff before retry `retry_number` (1-based) of op `op_seq` under
// `policy`. Pure function — the determinism contract lives here.
uint64_t BackoffNanos(const RetryPolicy& policy, uint64_t op_seq,
                      uint32_t retry_number);

// Fault/retry instruments of one mount, registered under stegfs_fault_*.
// Written by the mount's retry decorator from caller and engine pool
// threads alike (all counters are relaxed atomics).
struct FaultStats {
  obs::Counter transient_errors;
  obs::Counter persistent_errors;
  obs::Counter corruption_errors;
  obs::Counter timeout_errors;
  obs::Counter retries;           // re-attempts issued
  obs::Counter retry_successes;   // ops that failed then succeeded
  obs::Counter retry_exhausted;   // ops that failed every attempt
  obs::Histogram retry_backoff_ns;  // per-retry backoff slept
  obs::Histogram retry_latency_ns;  // total added latency of retried ops

  void CountClass(IoErrorClass cls) {
    switch (cls) {
      case IoErrorClass::kTransient:
        transient_errors.Increment();
        break;
      case IoErrorClass::kPersistent:
        persistent_errors.Increment();
        break;
      case IoErrorClass::kCorruption:
        corruption_errors.Increment();
        break;
      case IoErrorClass::kTimeout:
        timeout_errors.Increment();
        break;
      case IoErrorClass::kNone:
        break;
    }
  }

  void RegisterWith(obs::MetricsRegistry* reg) const {
    reg->RegisterCounter("stegfs_fault_transient_errors_total",
                         "Transient-classed device faults", &transient_errors);
    reg->RegisterCounter("stegfs_fault_persistent_errors_total",
                         "Persistent-classed device faults",
                         &persistent_errors);
    reg->RegisterCounter("stegfs_fault_corruption_errors_total",
                         "Corruption-classed device faults",
                         &corruption_errors);
    reg->RegisterCounter("stegfs_fault_timeout_errors_total",
                         "Timeout-classed device faults", &timeout_errors);
    reg->RegisterCounter("stegfs_fault_retries_total",
                         "Device op re-attempts issued", &retries);
    reg->RegisterCounter("stegfs_fault_retry_success_total",
                         "Device ops that succeeded after retrying",
                         &retry_successes);
    reg->RegisterCounter("stegfs_fault_retry_exhausted_total",
                         "Device ops that failed every retry attempt",
                         &retry_exhausted);
    reg->RegisterHistogram("stegfs_fault_retry_backoff_seconds",
                           "Backoff slept before each retry",
                           &retry_backoff_ns);
    reg->RegisterHistogram("stegfs_fault_retry_latency_seconds",
                           "Total added latency of retried ops",
                           &retry_latency_ns);
  }
};

}  // namespace fault
}  // namespace stegfs

#endif  // STEGFS_FAULT_RETRY_POLICY_H_
