#include "fault/fault_injection_device.h"

#include <chrono>
#include <cstring>
#include <thread>

namespace stegfs {
namespace fault {

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

std::vector<std::string_view> SplitOn(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string_view::npos) end = s.size();
    parts.push_back(s.substr(start, end - start));
    start = end + 1;
    if (start > s.size()) break;
  }
  return parts;
}

}  // namespace

FaultInjectionBlockDevice::FaultInjectionBlockDevice(BlockDevice* inner,
                                                     uint64_t seed)
    : inner_(inner), seed_(seed) {}

FaultInjectionBlockDevice::FaultInjectionBlockDevice(uint32_t block_size,
                                                     uint64_t num_blocks,
                                                     uint64_t seed)
    : owned_(std::make_unique<MemBlockDevice>(block_size, num_blocks)),
      seed_(seed) {
  inner_ = owned_.get();
}

void FaultInjectionBlockDevice::AddRule(const FaultRule& rule) {
  std::lock_guard<std::mutex> lock(mu_);
  Armed a;
  a.rule = rule;
  a.skip_left = rule.after;
  a.fires_left = rule.count;
  rules_.push_back(a);
}

void FaultInjectionBlockDevice::ClearRules() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
}

void FaultInjectionBlockDevice::set_seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
}

StatusOr<std::vector<FaultRule>> FaultInjectionBlockDevice::ParseSchedule(
    std::string_view spec, uint64_t* seed_out) {
  std::vector<FaultRule> rules;
  for (std::string_view entry : SplitOn(spec, ';')) {
    if (entry.empty()) continue;
    if (entry.substr(0, 5) == "seed=") {
      uint64_t seed = 0;
      if (!ParseU64(entry.substr(5), &seed)) {
        return Status::InvalidArgument("fault spec: bad seed: " +
                                       std::string(entry));
      }
      if (seed_out != nullptr) *seed_out = seed;
      continue;
    }
    std::vector<std::string_view> fields = SplitOn(entry, ':');
    if (fields.size() < 2) {
      return Status::InvalidArgument("fault spec: want op:kind[...]: " +
                                     std::string(entry));
    }
    FaultRule rule;
    if (fields[0] == "read") {
      rule.op = FaultRule::Op::kRead;
    } else if (fields[0] == "write") {
      rule.op = FaultRule::Op::kWrite;
    } else if (fields[0] == "sync") {
      rule.op = FaultRule::Op::kSync;
    } else if (fields[0] == "any") {
      rule.op = FaultRule::Op::kAny;
    } else {
      return Status::InvalidArgument("fault spec: unknown op: " +
                                     std::string(fields[0]));
    }

    // kind [ '@' after ] [ 'x' count ]
    std::string_view kind = fields[1];
    std::string_view trigger;
    const size_t at = kind.find('@');
    if (at != std::string_view::npos) {
      trigger = kind.substr(at + 1);
      kind = kind.substr(0, at);
    }
    if (kind == "eio") {
      rule.kind = FaultRule::Kind::kTransientError;
    } else if (kind == "fail") {
      rule.kind = FaultRule::Kind::kPersistentError;
      rule.count = FaultRule::kForever;
    } else if (kind == "error") {
      rule.kind = FaultRule::Kind::kUntaggedError;
      rule.count = FaultRule::kForever;
    } else if (kind == "torn") {
      rule.kind = FaultRule::Kind::kTornWrite;
    } else if (kind == "flip") {
      rule.kind = FaultRule::Kind::kBitFlip;
    } else if (kind == "delay") {
      rule.kind = FaultRule::Kind::kLatencySpike;
    } else if (kind == "timeout") {
      rule.kind = FaultRule::Kind::kTimeout;
    } else {
      return Status::InvalidArgument("fault spec: unknown kind: " +
                                     std::string(kind));
    }
    if (!trigger.empty()) {
      const size_t x = trigger.find('x');
      std::string_view after = trigger.substr(0, x == std::string_view::npos
                                                     ? trigger.size()
                                                     : x);
      if (!after.empty() && !ParseU64(after, &rule.after)) {
        return Status::InvalidArgument("fault spec: bad trigger: " +
                                       std::string(entry));
      }
      if (x != std::string_view::npos &&
          !ParseU64(trigger.substr(x + 1), &rule.count)) {
        return Status::InvalidArgument("fault spec: bad count: " +
                                       std::string(entry));
      }
    }
    for (size_t i = 2; i < fields.size(); ++i) {
      std::string_view param = fields[i];
      if (param.substr(0, 7) == "blocks=") {
        std::string_view range = param.substr(7);
        const size_t dash = range.find('-');
        if (dash == std::string_view::npos ||
            !ParseU64(range.substr(0, dash), &rule.block_lo) ||
            !ParseU64(range.substr(dash + 1), &rule.block_hi)) {
          return Status::InvalidArgument("fault spec: bad block range: " +
                                         std::string(entry));
        }
      } else if (param.substr(0, 3) == "us=") {
        if (!ParseU64(param.substr(3), &rule.delay_us)) {
          return Status::InvalidArgument("fault spec: bad delay: " +
                                         std::string(entry));
        }
      } else {
        return Status::InvalidArgument("fault spec: unknown param: " +
                                       std::string(param));
      }
    }
    rules.push_back(rule);
  }
  return rules;
}

Status FaultInjectionBlockDevice::LoadSchedule(std::string_view spec) {
  uint64_t seed = seed_;
  STEGFS_ASSIGN_OR_RETURN(std::vector<FaultRule> rules,
                          ParseSchedule(spec, &seed));
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  for (const FaultRule& r : rules) {
    Armed a;
    a.rule = r;
    a.skip_left = r.after;
    a.fires_left = r.count;
    rules_.push_back(a);
  }
  seed_ = seed;
  return Status::OK();
}

FaultInjectionBlockDevice::Fired FaultInjectionBlockDevice::Match(
    FaultRule::Op op, uint64_t block) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Armed& a : rules_) {
    const FaultRule& r = a.rule;
    if (r.op != FaultRule::Op::kAny && r.op != op) continue;
    if (op != FaultRule::Op::kSync &&
        (block < r.block_lo || block > r.block_hi)) {
      continue;
    }
    if (a.fires_left == 0) continue;  // spent
    if (a.skip_left > 0) {
      // The countdown burns on MATCHING ops only (the FaultyDevice
      // semantics: "fail after N more operations of this kind").
      --a.skip_left;
      continue;
    }
    if (a.fires_left != FaultRule::kForever) --a.fires_left;
    Fired f;
    f.fire = true;
    f.kind = r.kind;
    f.delay_us = r.delay_us;
    f.fire_seq = fire_seq_++;
    injected_.fetch_add(1, std::memory_order_relaxed);
    return f;
  }
  return {};
}

Status FaultInjectionBlockDevice::InjectedError(FaultRule::Kind kind,
                                                const char* what) const {
  switch (kind) {
    case FaultRule::Kind::kPersistentError:
      return Status::PersistentIOError(std::string("injected persistent ") +
                                       what + " fault");
    case FaultRule::Kind::kTimeout:
      return Status::TimeoutIOError(std::string("injected ") + what +
                                    " timeout");
    case FaultRule::Kind::kUntaggedError:
      return Status::IOError(std::string("injected ") + what + " fault");
    default:
      return Status::TransientIOError(std::string("injected transient ") +
                                      what + " fault");
  }
}

Status FaultInjectionBlockDevice::ReadBlock(uint64_t block, uint8_t* buf) {
  const Fired f = Match(FaultRule::Op::kRead, block);
  if (f.fire) {
    switch (f.kind) {
      case FaultRule::Kind::kLatencySpike:
        std::this_thread::sleep_for(std::chrono::microseconds(f.delay_us));
        break;
      case FaultRule::Kind::kBitFlip: {
        Status s = inner_->ReadBlock(block, buf);
        if (!s.ok()) return s;
        // Deterministic silent corruption: which bit flips is a pure
        // function of (seed, fire sequence, block).
        const uint64_t nbits = static_cast<uint64_t>(block_size()) * 8;
        const uint64_t bit =
            Mix64(seed_ ^ Mix64(f.fire_seq) ^ block) % nbits;
        buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        return Status::OK();
      }
      case FaultRule::Kind::kTornWrite:  // not a read fault: ignore
        break;
      default:
        return InjectedError(f.kind, "read");
    }
  }
  return inner_->ReadBlock(block, buf);
}

Status FaultInjectionBlockDevice::WriteBlock(uint64_t block,
                                             const uint8_t* buf) {
  const Fired f = Match(FaultRule::Op::kWrite, block);
  if (f.fire) {
    switch (f.kind) {
      case FaultRule::Kind::kLatencySpike:
        std::this_thread::sleep_for(std::chrono::microseconds(f.delay_us));
        break;
      case FaultRule::Kind::kTornWrite: {
        // Half the new bytes land, the tail keeps its old content — and
        // the op FAILS transiently, so a retry rewrites the full block.
        std::vector<uint8_t> torn(block_size());
        if (!inner_->ReadBlock(block, torn.data()).ok()) {
          std::memset(torn.data(), 0, torn.size());
        }
        std::memcpy(torn.data(), buf, block_size() / 2);
        (void)inner_->WriteBlock(block, torn.data());
        return Status::TransientIOError("injected torn write");
      }
      case FaultRule::Kind::kBitFlip:  // not a write fault: ignore
        break;
      default:
        return InjectedError(f.kind, "write");
    }
  }
  return inner_->WriteBlock(block, buf);
}

Status FaultInjectionBlockDevice::Sync() {
  const Fired f = Match(FaultRule::Op::kSync, 0);
  if (f.fire) {
    switch (f.kind) {
      case FaultRule::Kind::kLatencySpike:
        std::this_thread::sleep_for(std::chrono::microseconds(f.delay_us));
        break;
      case FaultRule::Kind::kTornWrite:
      case FaultRule::Kind::kBitFlip:
        break;
      default:
        return InjectedError(f.kind, "sync");
    }
  }
  return inner_->Sync();
}

}  // namespace fault
}  // namespace stegfs
