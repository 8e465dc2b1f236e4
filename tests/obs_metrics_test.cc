// The obs metrics layer in isolation: log-linear bucket geometry,
// percentile math, the cross-thread merge identity, registry lookup and
// Prometheus exposition, and concurrent snapshot readers (the TSan leg
// of the torn-snapshot fix).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace stegfs {
namespace obs {
namespace {

TEST(HistogramBucketsTest, SmallValuesAreExact) {
  // Buckets [0, 8) hold exact values: one value per bucket.
  for (uint64_t v = 0; v < HistogramBuckets::kSub; ++v) {
    EXPECT_EQ(HistogramBuckets::IndexOf(v), v);
    EXPECT_EQ(HistogramBuckets::UpperBound(v), v);
  }
}

TEST(HistogramBucketsTest, IndexIsMonotonicWithBoundedError) {
  size_t prev_idx = 0;
  for (uint64_t v = 1; v < (1ull << 34); v = v + v / 3 + 1) {
    size_t idx = HistogramBuckets::IndexOf(v);
    ASSERT_LT(idx, HistogramBuckets::kCount);
    EXPECT_GE(idx, prev_idx) << "index not monotonic at v=" << v;
    prev_idx = idx;
    uint64_t ub = HistogramBuckets::UpperBound(idx);
    EXPECT_GE(ub, v) << "upper bound below value at v=" << v;
    // 8 sub-buckets per octave: relative bucket width <= 1/8.
    EXPECT_LE(ub - v, v / 8 + 1) << "bucket too wide at v=" << v;
  }
}

TEST(HistogramBucketsTest, UpperBoundRoundTripsThroughIndexOf) {
  for (size_t idx = 0; idx < HistogramBuckets::kCount; ++idx) {
    EXPECT_EQ(HistogramBuckets::IndexOf(HistogramBuckets::UpperBound(idx)),
              idx);
  }
}

TEST(HistogramBucketsTest, OversizedValuesClampIntoLastBucket) {
  EXPECT_EQ(HistogramBuckets::IndexOf(~0ull), HistogramBuckets::kCount - 1);
}

TEST(HistogramTest, EmptyHistogramReportsZeroes) {
  Histogram h;
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.Percentile(0.5), 0u);
  EXPECT_EQ(s.Percentile(0.99), 0u);
  EXPECT_EQ(s.Percentile(1.0), 0u);
  EXPECT_EQ(s.MeanNanos(), 0.0);
}

TEST(HistogramTest, PercentilesOfKnownDistribution) {
  Histogram h;
  // 1..1000 microseconds, uniformly.
  for (uint64_t i = 1; i <= 1000; ++i) h.Record(i * 1000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  // Percentile returns the bucket upper bound (<= 12.5% above the true
  // quantile), clamped to the observed max.
  uint64_t p50 = s.Percentile(0.5);
  EXPECT_GE(p50, 500u * 1000);
  EXPECT_LE(p50, 500u * 1000 * 9 / 8 + 1);
  EXPECT_EQ(s.Percentile(1.0), s.max);
  EXPECT_EQ(s.max, 1000u * 1000);
  EXPECT_NEAR(s.MeanNanos(), 500500.0 * 1000 / 1000, 1.0);
}

TEST(HistogramTest, CrossThreadRecordingEqualsSingleThread) {
  // The merge identity: N threads recording into one histogram must
  // produce the exact snapshot single-threaded recording produces.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  Histogram shared;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, t] {
      for (int i = 0; i < kPerThread; ++i) {
        shared.Record(static_cast<uint64_t>(t) * 1000003 + i * 17 + 1);
      }
    });
  }
  for (auto& th : threads) th.join();

  Histogram single;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      single.Record(static_cast<uint64_t>(t) * 1000003 + i * 17 + 1);
    }
  }

  HistogramSnapshot a = shared.Snapshot();
  HistogramSnapshot b = single.Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(HistogramTest, SnapshotMergeEqualsCombinedRecording) {
  Histogram parts[3];
  Histogram whole;
  for (int p = 0; p < 3; ++p) {
    for (uint64_t i = 1; i <= 500; ++i) {
      uint64_t v = (p + 1) * 7919 * i;
      parts[p].Record(v);
      whole.Record(v);
    }
  }
  HistogramSnapshot merged = parts[0].Snapshot();
  merged.Merge(parts[1].Snapshot());
  merged.Merge(parts[2].Snapshot());
  HistogramSnapshot direct = whole.Snapshot();
  EXPECT_EQ(merged.count, direct.count);
  EXPECT_EQ(merged.sum, direct.sum);
  EXPECT_EQ(merged.max, direct.max);
  EXPECT_EQ(merged.buckets, direct.buckets);
}

TEST(CounterTest, AddIncrementReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistryTest, SnapshotLookupAndUnregister) {
  MetricsRegistry reg;
  Counter c;
  Histogram h;
  c.Add(7);
  h.Record(1000);
  reg.RegisterCounter("test_ops_total", "ops", &c);
  reg.RegisterHistogram("test_latency_seconds", "latency", &h);

  RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("test_ops_total"), 7u);
  EXPECT_EQ(snap.counter("missing_total"), 0u);
  ASSERT_NE(snap.histogram("test_latency_seconds"), nullptr);
  EXPECT_EQ(snap.histogram("test_latency_seconds")->count, 1u);
  EXPECT_EQ(snap.histogram("missing_seconds"), nullptr);

  // By-name lookup of one counter: found, or false with *value untouched
  // (an unknown name, or a histogram).
  uint64_t v = 0;
  EXPECT_TRUE(reg.FindCounter("test_ops_total", &v));
  EXPECT_EQ(v, 7u);
  v = 42;
  EXPECT_FALSE(reg.FindCounter("missing_total", &v));
  EXPECT_FALSE(reg.FindCounter("test_latency_seconds", &v));
  EXPECT_EQ(v, 42u);

  reg.Unregister("test_ops_total");
  reg.Unregister("test_latency_seconds");
  RegistrySnapshot after = reg.Snapshot();
  EXPECT_TRUE(after.counters.empty());
  EXPECT_TRUE(after.histograms.empty());
  EXPECT_FALSE(reg.FindCounter("test_ops_total", &v));
}

TEST(MetricsRegistryTest, TextExpositionFormat) {
  MetricsRegistry reg;
  Counter c;
  Histogram h;
  c.Add(3);
  h.Record(1500);  // 1.5 us
  h.Record(2000000);  // 2 ms
  reg.RegisterCounter("test_ops_total", "Number of ops", &c);
  reg.RegisterHistogram("test_latency_seconds", "Op latency", &h);

  std::string text = reg.TextExposition();
  EXPECT_NE(text.find("# HELP test_ops_total Number of ops"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_ops_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_sum"), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentSnapshotReadersSeeMonotonicCounts) {
  // The torn-snapshot regression test: writers hammer the instruments
  // while readers snapshot and scrape. Under TSan this also proves the
  // instrument/RegistrySnapshot paths are race-free. Counts observed by
  // one reader must never go backwards.
  MetricsRegistry reg;
  Counter c;
  Histogram h;
  reg.RegisterCounter("hammer_total", "hammered", &c);
  reg.RegisterHistogram("hammer_seconds", "hammered", &h);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.Increment();
        h.Record(12345);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      uint64_t last_count = 0;
      uint64_t last_hist = 0;
      for (int i = 0; i < 200; ++i) {
        RegistrySnapshot snap = reg.Snapshot();
        uint64_t cv = snap.counter("hammer_total");
        const HistogramSnapshot* hs = snap.histogram("hammer_seconds");
        ASSERT_NE(hs, nullptr);
        EXPECT_GE(cv, last_count);
        EXPECT_GE(hs->count, last_hist);
        last_count = cv;
        last_hist = hs->count;
        std::string text = reg.TextExposition();
        EXPECT_NE(text.find("hammer_total"), std::string::npos);
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  for (auto& th : writers) th.join();
}

TEST(MetricsEnabledTest, DisabledTimersRecordNothing) {
  ASSERT_TRUE(MetricsEnabled());  // test binaries run with obs on
  Histogram h;
  SetMetricsEnabled(false);
  { LatencyTimer t(&h); }
  EXPECT_EQ(h.count(), 0u);
  SetMetricsEnabled(true);
  { LatencyTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(LatencyTimerTest, StopIsIdempotentAndCancelDropsSample) {
  Histogram h;
  {
    LatencyTimer t(&h);
    t.Stop();
    t.Stop();  // second Stop records nothing
  }
  EXPECT_EQ(h.count(), 1u);
  {
    LatencyTimer t(&h);
    t.Cancel();
  }
  EXPECT_EQ(h.count(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace stegfs
