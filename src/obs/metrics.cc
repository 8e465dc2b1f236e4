#include "obs/metrics.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace stegfs {
namespace obs {

namespace {

std::atomic<bool>& EnabledFlag() {
  // First use reads STEGFS_OBS so benches and CI can A/B the overhead
  // without a rebuild: unset or anything but "0" means on.
  static std::atomic<bool> enabled = [] {
    const char* env = std::getenv("STEGFS_OBS");
    return env == nullptr || std::strcmp(env, "0") != 0;
  }();
  return enabled;
}

}  // namespace

bool MetricsEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample, 1-based: ceil(q * count), at least 1.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  if (rank == 0) rank = 1;
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      const uint64_t upper = HistogramBuckets::UpperBound(i);
      return upper > max ? max : upper;
    }
  }
  return max;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < buckets_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void MetricsRegistry::RegisterCounter(const std::string& name,
                                      const std::string& help,
                                      const Counter* c) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] = CounterEntry{help, c};
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        const std::string& help,
                                        const Histogram* h) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name] = HistogramEntry{help, h, 1e-9};
}

void MetricsRegistry::RegisterCountHistogram(const std::string& name,
                                             const std::string& help,
                                             const Histogram* h) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name] = HistogramEntry{help, h, 1.0};
}

void MetricsRegistry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.erase(name);
  histograms_.erase(name);
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  for (const auto& [name, entry] : counters_) {
    snap.counters[name] = entry.counter->value();
  }
  for (const auto& [name, entry] : histograms_) {
    snap.histograms[name] = entry.histogram->Snapshot();
  }
  return snap;
}

bool MetricsRegistry::FindCounter(const std::string& name,
                                  uint64_t* value) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) return false;
  *value = it->second.counter->value();
  return true;
}

std::string MetricsRegistry::TextExposition() const {
  // Take help strings under the lock, values via one snapshot.
  std::map<std::string, std::string> counter_help;
  std::map<std::string, std::string> histogram_help;
  std::map<std::string, double> histogram_scale;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : counters_) {
      counter_help[name] = entry.help;
    }
    for (const auto& [name, entry] : histograms_) {
      histogram_help[name] = entry.help;
      histogram_scale[name] = entry.scale;
    }
  }
  RegistrySnapshot snap = Snapshot();
  std::string out;
  out.reserve(4096);
  char line[256];
  for (const auto& [name, value] : snap.counters) {
    out += "# HELP " + name + " " + counter_help[name] + "\n";
    out += "# TYPE " + name + " counter\n";
    std::snprintf(line, sizeof(line), "%s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, hist] : snap.histograms) {
    out += "# HELP " + name + " " + histogram_help[name] + "\n";
    out += "# TYPE " + name + " histogram\n";
    // Nanoseconds print as seconds; count histograms print unscaled.
    auto sc = histogram_scale.find(name);
    const double scale = sc == histogram_scale.end() ? 1e-9 : sc->second;
    uint64_t cum = 0;
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      if (hist.buckets[i] == 0) continue;
      cum += hist.buckets[i];
      std::snprintf(line, sizeof(line), "%s_bucket{le=\"%.9g\"} %llu\n",
                    name.c_str(),
                    static_cast<double>(HistogramBuckets::UpperBound(i)) *
                        scale,
                    static_cast<unsigned long long>(cum));
      out += line;
    }
    std::snprintf(line, sizeof(line), "%s_bucket{le=\"+Inf\"} %llu\n",
                  name.c_str(), static_cast<unsigned long long>(hist.count));
    out += line;
    std::snprintf(line, sizeof(line), "%s_sum %.9g\n", name.c_str(),
                  static_cast<double>(hist.sum) * scale);
    out += line;
    std::snprintf(line, sizeof(line), "%s_count %llu\n", name.c_str(),
                  static_cast<unsigned long long>(hist.count));
    out += line;
  }
  return out;
}

MetricsRegistry& GlobalRegistry() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

CryptoMetrics& GlobalCryptoMetrics() {
  static CryptoMetrics* metrics = [] {
    auto* m = new CryptoMetrics();
    m->RegisterWith(&GlobalRegistry());
    return m;
  }();
  return *metrics;
}

}  // namespace obs
}  // namespace stegfs
