// Fault taxonomy: every BlockDevice result is classified into one of four
// handling classes before the stack reacts:
//
//   kTransient  - momentary substrate hiccup (EIO under load, a dropped
//                 remote-carrier request). Worth retrying with backoff;
//                 the RetryingBlockDevice decorator absorbs these below
//                 the cache, the journal and the async engine.
//   kTimeout    - the op exceeded its deadline (latency spike on a
//                 high-latency carrier). Retryable like kTransient, but
//                 counted separately so a slow backend is distinguishable
//                 from a flaky one.
//   kPersistent - the device says this will keep failing (ENOSPC, EROFS,
//                 dead backend). Never retried; a persistent WRITE fault
//                 trips the mount's degraded-mode state machine straight
//                 to kReadOnly (see fault/health.h).
//   kCorruption - the bytes moved but failed validation. Not retried at
//                 the device layer — the redundancy heal path
//                 (decode-from-any-k + re-disperse) is the correct
//                 response, and it owns these.
//
// Producers tag statuses at the source (Status::TransientIOError etc.,
// FaultInjectionBlockDevice's scripted faults); Classify() fills in
// defaults for untagged errors so legacy Status::IOError call sites get
// sane handling without a global rewrite.
#ifndef STEGFS_FAULT_ERROR_TAXONOMY_H_
#define STEGFS_FAULT_ERROR_TAXONOMY_H_

#include "util/status.h"

namespace stegfs {
namespace fault {

// Effective class of a status: the producer's tag when present, else a
// conservative default by code. Untagged kIOError defaults to kTransient —
// a retry of a genuinely dead device costs a few backoff sleeps and then
// degrades, while NOT retrying a recoverable blip on a lossy carrier
// loses the op outright; the asymmetry favors retrying.
inline IoErrorClass Classify(const Status& s) {
  if (s.ok()) return IoErrorClass::kNone;
  if (s.io_class() != IoErrorClass::kNone) return s.io_class();
  switch (s.code()) {
    case StatusCode::kIOError:
      return IoErrorClass::kTransient;
    case StatusCode::kCorruption:
    case StatusCode::kDataLoss:
      return IoErrorClass::kCorruption;
    default:
      return IoErrorClass::kNone;  // not an I/O fault: surface unchanged
  }
}

// Whether the retry decorator should re-attempt an op that failed with
// this status.
inline bool IsRetryable(const Status& s) {
  const IoErrorClass cls = Classify(s);
  return cls == IoErrorClass::kTransient || cls == IoErrorClass::kTimeout;
}

inline const char* IoErrorClassName(IoErrorClass cls) {
  switch (cls) {
    case IoErrorClass::kNone:
      return "none";
    case IoErrorClass::kTransient:
      return "transient";
    case IoErrorClass::kPersistent:
      return "persistent";
    case IoErrorClass::kCorruption:
      return "corruption";
    case IoErrorClass::kTimeout:
      return "timeout";
  }
  return "unknown";
}

}  // namespace fault
}  // namespace stegfs

#endif  // STEGFS_FAULT_ERROR_TAXONOMY_H_
