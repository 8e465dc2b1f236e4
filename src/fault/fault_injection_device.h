// FaultInjectionBlockDevice: first-class, scriptable fault injection
// (tests/test_device.h's FaultyDevice is a thin compatibility shim over
// this).
//
// A BlockDevice decorator (or, for tests, an owner of a MemBlockDevice)
// that fires faults from a seeded, scriptable schedule of rules. Each
// rule names an op kind, a trigger (skip the first `after` matching ops,
// then fire `count` times), an optional block range, and a fault kind:
//
//   kTransientError - taxonomy-tagged transient EIO (the retry layer
//                     absorbs these)
//   kPersistentError- taxonomy-tagged persistent fault (trips the mount's
//                     degraded-mode state machine)
//   kUntaggedError  - plain Status::IOError, the legacy FaultyDevice
//                     behavior (classified transient by default)
//   kTornWrite      - the first half of the block lands, the rest keeps
//                     its old content, and a transient error returns — a
//                     power-cut-shaped tear the retry layer repairs by
//                     rewriting the full block
//   kBitFlip        - the read "succeeds" with one deterministically
//                     seeded bit flipped: silent corruption for the
//                     redundancy checksums + heal path to catch
//   kLatencySpike   - the op sleeps `delay_us` then succeeds (feeds the
//                     timeout class and latency histograms)
//   kTimeout        - taxonomy-tagged timeout error (retryable)
//
// Schedules are deterministic: the same seed + rules + workload produce
// the same fault sequence, which is what makes the chaos matrix
// (FAULT_matrix.json) reproducible across engines and runs.
//
// The string form, usable from the C API (steg_mount_faulty):
//
//   spec  := [ "seed=" N ";" ] rule { ";" rule }
//   rule  := op ":" kind [ "@" after ] [ "x" count ] { ":" param }
//   op    := "read" | "write" | "sync" | "any"
//   kind  := "eio" | "fail" | "error" | "torn" | "flip" | "delay"
//            | "timeout"
//   param := "blocks=" LO "-" HI | "us=" N
//
// e.g. "seed=7;write:eio@3x2;read:flip@10;sync:fail" — after 3 writes
// fail the next 2 with transient EIO, flip a bit in the 11th read, and
// fail every sync persistently. `count` defaults to 1 except for
// "fail"/"error", which default to forever (the FaultyDevice semantics:
// armed until healed).
//
// Thread-safe: rule matching takes an internal mutex, so faults can be
// armed, fired and healed while other threads are mid-I/O (the
// concurrency suites inject under contention).
#ifndef STEGFS_FAULT_FAULT_INJECTION_DEVICE_H_
#define STEGFS_FAULT_FAULT_INJECTION_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "blockdev/block_device.h"
#include "blockdev/mem_block_device.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {
namespace fault {

struct FaultRule {
  enum class Op { kRead, kWrite, kSync, kAny };
  enum class Kind {
    kTransientError,
    kPersistentError,
    kUntaggedError,
    kTornWrite,
    kBitFlip,
    kLatencySpike,
    kTimeout,
  };
  static constexpr uint64_t kForever = std::numeric_limits<uint64_t>::max();

  Op op = Op::kAny;
  Kind kind = Kind::kTransientError;
  uint64_t after = 0;   // skip this many matching ops first
  uint64_t count = 1;   // then fire this many times (kForever = until heal)
  uint64_t block_lo = 0;
  uint64_t block_hi = std::numeric_limits<uint64_t>::max();
  uint64_t delay_us = 1000;  // kLatencySpike sleep
};

class FaultInjectionBlockDevice : public BlockDevice {
 public:
  // Decorator form: injects above an existing device (not owned).
  explicit FaultInjectionBlockDevice(BlockDevice* inner, uint64_t seed = 0);
  // Owning form: a RAM-backed volume with injection, for tests.
  FaultInjectionBlockDevice(uint32_t block_size, uint64_t num_blocks,
                            uint64_t seed = 0);

  // --- schedule -----------------------------------------------------------
  void AddRule(const FaultRule& rule);
  void ClearRules();  // heal: no further faults fire
  void set_seed(uint64_t seed);
  // Parses the spec string documented above; on success replaces the
  // current schedule (and seed, when the spec names one).
  Status LoadSchedule(std::string_view spec);
  static StatusOr<std::vector<FaultRule>> ParseSchedule(std::string_view spec,
                                                        uint64_t* seed_out);

  uint64_t faults_injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  // Owning form's backing store (nullptr in decorator form) — tests use
  // it to corrupt or inspect raw blocks beneath the injection layer.
  MemBlockDevice* mem() { return owned_.get(); }

  // --- BlockDevice --------------------------------------------------------
  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t num_blocks() const override { return inner_->num_blocks(); }
  Status ReadBlock(uint64_t block, uint8_t* buf) override;
  Status WriteBlock(uint64_t block, const uint8_t* buf) override;
  Status Flush() override { return inner_->Flush(); }
  Status Sync() override;
  const DeviceMetrics* device_metrics() const override {
    return inner_->device_metrics();
  }
  void set_flush_durability(FlushDurability mode) override {
    inner_->set_flush_durability(mode);
  }
  FlushDurability flush_durability() const override {
    return inner_->flush_durability();
  }

 private:
  struct Armed {
    FaultRule rule;
    uint64_t skip_left = 0;
    uint64_t fires_left = 0;
  };
  struct Fired {
    bool fire = false;
    FaultRule::Kind kind = FaultRule::Kind::kTransientError;
    uint64_t delay_us = 0;
    uint64_t fire_seq = 0;  // per-device fire counter, seeds the bit flip
  };

  // Consumes trigger state for one op; returns what (if anything) fires.
  Fired Match(FaultRule::Op op, uint64_t block);
  Status InjectedError(FaultRule::Kind kind, const char* what) const;

  BlockDevice* inner_;                     // the device I/O goes to
  std::unique_ptr<MemBlockDevice> owned_;  // set in the owning form
  std::mutex mu_;                          // guards rules_ + seed_
  std::vector<Armed> rules_;
  uint64_t seed_ = 0;
  uint64_t fire_seq_ = 0;
  std::atomic<uint64_t> injected_{0};
};

}  // namespace fault
}  // namespace stegfs

#endif  // STEGFS_FAULT_FAULT_INJECTION_DEVICE_H_
