// stegtrace metrics: the unified, deniability-preserving observability
// registry.
//
// Everything here lives ONLY in process memory. No instrument, snapshot,
// or exposition ever touches the block device: a volume image must be
// bit-identical whether observability ran or not (the obs deniability
// test proves it). That constraint is why this is a bespoke layer rather
// than a dependency — nothing may be persisted, and nothing may allocate
// on the record path of a hot loop.
//
// Three pieces:
//
//   Counter   - a relaxed atomic u64. Writers never synchronize; readers
//               get a point-in-time value. Each component keeps its
//               counters in one instrument struct (CacheMetrics,
//               JournalMetrics, DeviceMetrics, ...) that is the only copy:
//               tests read the fields, the registry exports the same
//               objects by name.
//   Histogram - a log-linear latency histogram (HdrHistogram bucketing:
//               8 sub-buckets per power of two, <= 12.5% relative error),
//               all-atomic so any number of threads record concurrently
//               and a snapshot from one thread merges them for free.
//               Snapshots are value types that Merge() exactly — the
//               cross-thread-merge test pins merge ≡ single-thread.
//   MetricsRegistry - a directory of named instruments. Components own
//               their instruments (so unit tests see them without any
//               registry); a mount registers them under stable Prometheus
//               names. Snapshot() reads every instrument once into a
//               value object (the exposition's one consistent read);
//               FindCounter() reads one counter by name (steg_metric).
//
// Recording cost when enabled is one clock_gettime + one relaxed
// fetch_add per histogram sample; when disabled (SetMetricsEnabled(false)
// or STEGFS_OBS=0 in the environment) the timer helpers skip the clock
// entirely. The obs-overhead CI job holds enabled-mode bench throughput
// within 3% of disabled.
#ifndef STEGFS_OBS_METRICS_H_
#define STEGFS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace stegfs {
namespace obs {

// Process-wide observability switch (metrics AND trace timers). Reads the
// STEGFS_OBS environment variable once at first use: unset or "1" = on.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

// Monotonic nanoseconds (steady clock).
uint64_t NowNanos();

// A lock-free monotonic counter.
class Counter {
 public:
  void Add(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  // Test/bench reset; never used on a live scrape path.
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Log-linear bucket geometry, shared by Histogram and its snapshot.
// Values are nanoseconds, clamped to < 2^40 ns (~18 minutes).
struct HistogramBuckets {
  static constexpr int kSubBits = 3;                // 8 sub-buckets/octave
  static constexpr uint64_t kSub = 1ull << kSubBits;
  static constexpr int kMaxOctave = 40;
  static constexpr size_t kCount =
      kSub + static_cast<size_t>(kMaxOctave - kSubBits) * kSub;

  static uint64_t ClampValue(uint64_t v) {
    const uint64_t max = (1ull << kMaxOctave) - 1;
    return v > max ? max : v;
  }

  // Index of the bucket holding `v` (after clamping). Buckets [0, 8)
  // hold exact values 0..7; each further octave splits into 8 linear
  // sub-buckets, so the relative bucket width is <= 1/8.
  static size_t IndexOf(uint64_t v) {
    v = ClampValue(v);
    if (v < kSub) return static_cast<size_t>(v);
    const int octave = 63 - __builtin_clzll(v);
    return static_cast<size_t>(octave - kSubBits + 1) * kSub +
           static_cast<size_t>((v >> (octave - kSubBits)) - kSub);
  }

  // Largest value that lands in bucket `idx` (inclusive).
  static uint64_t UpperBound(size_t idx) {
    if (idx < kSub) return idx;
    const size_t u = idx / kSub;
    const size_t r = idx % kSub;
    const int octave = static_cast<int>(u) - 1 + kSubBits;
    return ((kSub + r + 1) << (octave - kSubBits)) - 1;
  }
};

// Value-type snapshot of one histogram; mergeable and percentile-capable.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;  // nanoseconds
  uint64_t max = 0;
  std::array<uint64_t, HistogramBuckets::kCount> buckets{};

  // Exact merge: recording N samples on one thread and snapshotting
  // equals recording them across threads and merging the snapshots.
  void Merge(const HistogramSnapshot& other) {
    count += other.count;
    sum += other.sum;
    if (other.max > max) max = other.max;
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  }

  // Quantile in [0, 1]. Returns the upper bound of the bucket containing
  // the q-th sample, clamped to the exact observed max (so Percentile(1)
  // == max). 0 when empty.
  uint64_t Percentile(double q) const;
  double MeanNanos() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

// Thread-safe latency histogram. Record() is wait-free (relaxed atomics
// only); Snapshot() reads each cell once.
class Histogram {
 public:
  void Record(uint64_t nanos) {
    nanos = HistogramBuckets::ClampValue(nanos);
    buckets_[HistogramBuckets::IndexOf(nanos)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(nanos, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < nanos &&
           !max_.compare_exchange_weak(prev, nanos,
                                       std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snapshot() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, HistogramBuckets::kCount> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// RAII latency sample: records destruction-time elapsed nanos into `h`.
// When observability is disabled (or `h` is null) it never reads the
// clock — the whole thing collapses to two branches.
class LatencyTimer {
 public:
  explicit LatencyTimer(Histogram* h)
      : h_(h != nullptr && MetricsEnabled() ? h : nullptr),
        t0_(h_ != nullptr ? NowNanos() : 0) {}
  ~LatencyTimer() { Stop(); }
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;
  // Records the sample now instead of at destruction (idempotent).
  void Stop() {
    if (h_ != nullptr) h_->Record(NowNanos() - t0_);
    h_ = nullptr;
  }
  void Cancel() { h_ = nullptr; }

 private:
  Histogram* h_;
  uint64_t t0_;
};

// One consistent read of every registered instrument. steg_metrics_text()
// is built from this — no live-atomic re-reads between series, so derived
// values (hit rates) are self-consistent.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  const HistogramSnapshot* histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : &it->second;
  }
};

// A directory of named instruments. The registry does NOT own them:
// components keep their instruments (unit tests use them registry-free)
// and a mount registers pointers under stable names. Registration and
// scraping are mutex-guarded; instrument updates never are. Instruments
// must outlive every scrape — PlainFs owns its registry and registers
// only objects the mount owns, and unmount is single-threaded by the C
// API contract, so nothing scrapes a dying volume.
class MetricsRegistry {
 public:
  void RegisterCounter(const std::string& name, const std::string& help,
                       const Counter* c);
  void RegisterHistogram(const std::string& name, const std::string& help,
                         const Histogram* h);
  // A histogram of plain counts (e.g. probes per walk), not nanoseconds:
  // exposition prints its bucket bounds and sum unscaled.
  void RegisterCountHistogram(const std::string& name,
                              const std::string& help, const Histogram* h);
  void Unregister(const std::string& name);

  RegistrySnapshot Snapshot() const;

  // Current value of the counter registered under `name`: true and
  // *value set when it exists; false (and *value untouched) for an
  // unknown name or a histogram. One locked map lookup, no snapshot.
  bool FindCounter(const std::string& name, uint64_t* value) const;

  // Prometheus exposition format (text/plain; version 0.0.4). Counters as
  // `# TYPE c counter`; histograms as `_bucket{le="<seconds>"}` series
  // (non-empty buckets only — a legal subset — plus +Inf), `_sum` and
  // `_count`, with nanoseconds converted to base-unit seconds.
  std::string TextExposition() const;

 private:
  struct CounterEntry {
    std::string help;
    const Counter* counter;
  };
  struct HistogramEntry {
    std::string help;
    const Histogram* histogram;
    double scale;  // exposition units per recorded unit
  };
  mutable std::mutex mu_;
  std::map<std::string, CounterEntry> counters_;
  std::map<std::string, HistogramEntry> histograms_;
};

// Process-wide registry for instruments that are global by nature (the
// AES/GF tier pipelines are process-wide singletons). Volume-scoped
// instruments belong in the mount's own registry.
MetricsRegistry& GlobalRegistry();

// Global crypto-pipeline instruments (registered in GlobalRegistry on
// first use): batch encrypt/decrypt latency + block counts.
struct CryptoMetrics {
  Histogram encrypt_ns;
  Histogram decrypt_ns;
  Counter blocks_encrypted;
  Counter blocks_decrypted;

  // The crypter is stateless and process-wide, so these instruments are
  // too; per-mount registries re-register the same pointers so one
  // exposition covers the whole data path.
  void RegisterWith(MetricsRegistry* reg) const {
    reg->RegisterHistogram("stegfs_crypto_encrypt_seconds",
                           "Batch encrypt latency", &encrypt_ns);
    reg->RegisterHistogram("stegfs_crypto_decrypt_seconds",
                           "Batch decrypt latency", &decrypt_ns);
    reg->RegisterCounter("stegfs_crypto_blocks_encrypted_total",
                         "Blocks encrypted", &blocks_encrypted);
    reg->RegisterCounter("stegfs_crypto_blocks_decrypted_total",
                         "Blocks decrypted", &blocks_decrypted);
  }
};
CryptoMetrics& GlobalCryptoMetrics();

}  // namespace obs
}  // namespace stegfs

#endif  // STEGFS_OBS_METRICS_H_
