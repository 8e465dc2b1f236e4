// The stegtrace span recorder: ring wraparound accounting, thread-local
// nesting, the cross-thread continuation hand-off (exactly one root span
// per operation even when completions race on other threads), Chrome
// trace-event export, the slow-op tree dump, and the span trees of a
// hidden connect and of the encrypted store's engine path.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "blockdev/thread_pool_async_device.h"
#include "blockdev/throttled_block_device.h"
#include "cache/buffer_cache.h"
#include "core/stegfs.h"
#include "fs/block_store.h"

namespace stegfs {
namespace obs {
namespace {

TraceEvent MakeEvent(uint64_t op_id) {
  TraceEvent ev;
  ev.name = "synthetic";
  ev.cat = "test";
  ev.op_id = op_id;
  ev.span_id = op_id;
  ev.start_ns = op_id * 100;
  ev.dur_ns = 10;
  return ev;
}

TEST(TraceRecorderTest, RingWrapsKeepingNewestEvents) {
  TraceRecorder rec(8);
  rec.Start();
  for (uint64_t i = 0; i < 20; ++i) rec.Record(MakeEvent(i));
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest first, and only the newest 8 survive the wrap.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].op_id, 12 + i);
  }
  rec.Clear();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_TRUE(rec.Events().empty());
}

TEST(TraceSpanTest, InertWhileRecorderStopped) {
  TraceRecorder rec(64);  // never Start()ed
  {
    Span span(&rec, "op", "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(rec.recorded(), 0u);
  // A thread-child span with no ambient context is inert too.
  {
    Span child("orphan", "test");
    EXPECT_FALSE(child.active());
  }
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(TraceSpanTest, SameThreadSpansNestUnderTheRoot) {
  TraceRecorder rec(64);
  rec.Start();
  {
    Span root(&rec, "op", "test");
    ASSERT_TRUE(root.active());
    { Span child("step1", "test"); }
    { Span child("step2", "test"); }
  }
  std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 3u);  // children close before the root
  const TraceEvent& c1 = events[0];
  const TraceEvent& c2 = events[1];
  const TraceEvent& root = events[2];
  EXPECT_EQ(root.parent_span, 0u);
  EXPECT_EQ(std::string(c1.name), "step1");
  EXPECT_EQ(std::string(c2.name), "step2");
  EXPECT_EQ(c1.op_id, root.op_id);
  EXPECT_EQ(c2.op_id, root.op_id);
  EXPECT_EQ(c1.parent_span, root.span_id);
  EXPECT_EQ(c2.parent_span, root.span_id);
}

TEST(TraceSpanTest, CloseEndsThePhaseBeforeTheNextSiblingOpens) {
  TraceRecorder rec(64);
  rec.Start();
  {
    Span root(&rec, "op", "test");
    Span phase1("phase1", "test");
    phase1.Close();
    Span phase2("phase2", "test");
    // phase2 must be a sibling of phase1 (child of root), not its child.
  }
  std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 3u);
  uint64_t root_span = events[2].span_id;
  EXPECT_EQ(std::string(events[0].name), "phase1");
  EXPECT_EQ(std::string(events[1].name), "phase2");
  EXPECT_EQ(events[0].parent_span, root_span);
  EXPECT_EQ(events[1].parent_span, root_span);
}

TEST(TraceSpanTest, ExactlyOneRootPerOpUnderCompletionRaces) {
  // The async-engine shape: each operation roots a span on its own
  // thread, hands its context to a "completion" running on a different
  // thread, and the completion only continues — it must never root. Many
  // ops race; afterwards every op_id must own exactly one root event.
  constexpr int kOpThreads = 8;
  constexpr int kOpsPerThread = 16;
  TraceRecorder rec(4096);
  rec.Start();

  std::vector<std::thread> op_threads;
  for (int t = 0; t < kOpThreads; ++t) {
    op_threads.emplace_back([&rec] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        Span root(&rec, "op", "test");
        ASSERT_TRUE(root.active());
        SpanContext ctx = root.context();
        // The completion races on its own thread, like an engine worker.
        std::thread completion([ctx] {
          Span cont(ctx, "complete", "test");
          { Span nested("decrypt", "test"); }
        });
        completion.join();
      }
    });
  }
  for (auto& th : op_threads) th.join();

  std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kOpThreads * kOpsPerThread * 3));
  EXPECT_EQ(rec.dropped(), 0u);
  std::map<uint64_t, int> roots_per_op;
  std::map<uint64_t, int> events_per_op;
  for (const TraceEvent& ev : events) {
    events_per_op[ev.op_id]++;
    if (ev.parent_span == 0) roots_per_op[ev.op_id]++;
  }
  EXPECT_EQ(events_per_op.size(),
            static_cast<size_t>(kOpThreads * kOpsPerThread));
  for (const auto& [op_id, n] : events_per_op) {
    EXPECT_EQ(n, 3) << "op " << op_id;
    EXPECT_EQ(roots_per_op[op_id], 1)
        << "op " << op_id << " does not have exactly one root span";
  }
}

TEST(TraceRecorderTest, ChromeJsonIsPerfettoShaped) {
  TraceRecorder rec(64);
  rec.Start();
  {
    Span root(&rec, "op", "test");
    { Span child("step", "test"); }
  }
  std::string json = rec.ExportChromeJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"op\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"step\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  // Balanced braces/brackets at the ends — loadable, not truncated.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceRecorderTest, DumpOpTreeIndentsChildren) {
  TraceRecorder rec(64);
  rec.Start();
  uint64_t op_id = 0;
  {
    Span root(&rec, "op", "test");
    op_id = root.context().op_id;
    { Span child("step", "test"); }
  }
  std::string tree = rec.DumpOpTree(op_id);
  size_t root_pos = tree.find("op");
  size_t child_pos = tree.find("  ");  // children are indented
  EXPECT_NE(root_pos, std::string::npos);
  EXPECT_NE(child_pos, std::string::npos);
  EXPECT_NE(tree.find("step"), std::string::npos);
  EXPECT_NE(tree.find("us"), std::string::npos);
}

TEST(TraceRecorderTest, SlowOpThresholdDumpsWithoutCrashing) {
  TraceRecorder rec(64);
  rec.Start();
  rec.set_slow_op_threshold_ns(1);  // everything is "slow"
  EXPECT_EQ(rec.slow_op_threshold_ns(), 1u);
  {
    Span root(&rec, "slow_op", "test");
    { Span child("slow_child", "test"); }
  }
  // The dump goes to stderr; the assertion is that the tree walk on a
  // just-closed root is safe and the events were still recorded.
  EXPECT_EQ(rec.Events().size(), 2u);
}

// The extent work the fan-out runs on engine workers stays in the
// operation's tree: every store.read chunk span of a large read (device
// read and decrypt), whichever thread ran it, chains up to the op's one
// root; so do a large write's store.write chunk spans (encrypt and device
// write). A slow device keeps the caller busy long enough that the
// workers take chunks too.
TEST(TraceSpanTest, EnginePathCryptoSpansSitInTheOpTree) {
  MemBlockDevice mem(512, 1024);
  ThrottledBlockDevice dev(&mem, std::chrono::microseconds(50),
                           std::chrono::microseconds(0));
  BufferCache cache(&dev, 512);
  ThreadPoolAsyncDevice engine(&dev, 2);
  cache.SetAsyncEngine(&engine);
  crypto::BlockCrypter crypter("trace-test-key");
  EncryptedBlockStore store(&cache, &crypter);
  std::vector<uint64_t> blocks(200);
  for (size_t i = 0; i < blocks.size(); ++i) blocks[i] = i * 5;
  std::vector<uint8_t> buf(blocks.size() * 512);

  TraceRecorder rec(8192);
  rec.Start();
  uint64_t read_op = 0, write_op = 0;
  {
    Span root(&rec, "read", "test");
    read_op = root.context().op_id;
    ASSERT_TRUE(store.ReadBlocks(blocks.data(), blocks.size(), buf.data())
                    .ok());
  }
  {
    Span root(&rec, "write", "test");
    write_op = root.context().op_id;
    ASSERT_TRUE(store.WriteBlocks(blocks.data(), blocks.size(), buf.data())
                    .ok());
  }
  engine.Drain();
  cache.SetAsyncEngine(nullptr);
  rec.Stop();

  std::vector<TraceEvent> events = rec.Events();
  EXPECT_EQ(rec.dropped(), 0u);
  std::map<uint64_t, const TraceEvent*> by_span;
  std::map<uint64_t, const TraceEvent*> root_of_op;
  for (const TraceEvent& ev : events) {
    by_span[ev.span_id] = &ev;
    if (ev.parent_span == 0) {
      EXPECT_EQ(root_of_op.count(ev.op_id), 0u) << "second root";
      root_of_op[ev.op_id] = &ev;
    }
  }
  ASSERT_EQ(root_of_op.count(read_op), 1u);
  ASSERT_EQ(root_of_op.count(write_op), 1u);

  // Follows parent links from `ev`; true when they end at its op's root.
  auto reaches_root = [&](const TraceEvent& ev) {
    const TraceEvent* at = &ev;
    for (int hops = 0; hops < 16 && at->parent_span != 0; ++hops) {
      auto parent = by_span.find(at->parent_span);
      if (parent == by_span.end()) return false;
      at = parent->second;
    }
    return at == root_of_op[ev.op_id];
  };
  const uint32_t caller_tid = root_of_op[read_op]->tid;
  size_t reads = 0, worker_reads = 0, writes = 0;
  for (const TraceEvent& ev : events) {
    const std::string name = ev.name;
    if (name == "store.read") {
      EXPECT_EQ(ev.op_id, read_op);
      EXPECT_TRUE(reaches_root(ev)) << "read span outside the op's tree";
      ++reads;
      if (ev.tid != caller_tid) ++worker_reads;
    } else if (name == "store.write") {
      EXPECT_EQ(ev.op_id, write_op);
      EXPECT_TRUE(reaches_root(ev)) << "write span outside the op's tree";
      ++writes;
    }
  }
  EXPECT_GT(reads, 0u);
  EXPECT_GT(worker_reads, 0u) << "no chunk read on an engine worker";
  EXPECT_GT(writes, 0u);
}

// Each StegConnect is one `hidden.connect` subtree: the UAK-directory
// open, the entry lookup and the object open all sit under its root, so
// both header walks (`locator.find`, one per open) are in its tree.
TEST(TraceSpanTest, ConnectIsOneSubtreeHoldingItsHeaderWalks) {
  MemBlockDevice dev(512, 4096);
  StegFormatOptions fmt;
  fmt.params.dummy_file_count = 2;
  fmt.params.dummy_file_avg_bytes = 2048;
  ASSERT_TRUE(StegFs::Format(&dev, fmt).ok());
  auto fs = StegFs::Mount(&dev, StegFsOptions());
  ASSERT_TRUE(fs.ok());
  const char* kObjs[] = {"a", "b", "c"};
  for (const char* obj : kObjs) {
    ASSERT_TRUE((*fs)->StegCreate("alice", obj, "uak", HiddenType::kFile)
                    .ok());
  }

  TraceRecorder* rec = (*fs)->plain()->trace_recorder();
  rec->Clear();
  rec->Start();
  for (const char* obj : kObjs) {
    ASSERT_TRUE((*fs)->StegConnect("alice", obj, "uak").ok());
  }
  rec->Stop();

  std::vector<TraceEvent> events = rec->Events();
  EXPECT_EQ(rec->dropped(), 0u);
  std::map<uint64_t, const TraceEvent*> by_span;
  std::map<uint64_t, const TraceEvent*> root_of_op;
  for (const TraceEvent& ev : events) {
    by_span[ev.span_id] = &ev;
    if (ev.parent_span == 0) {
      EXPECT_STREQ(ev.name, "hidden.connect");
      EXPECT_EQ(root_of_op.count(ev.op_id), 0u) << "second root";
      root_of_op[ev.op_id] = &ev;
    }
  }
  EXPECT_EQ(root_of_op.size(), std::size(kObjs));
  std::map<uint64_t, int> walks_of_op;
  for (const TraceEvent& ev : events) {
    ASSERT_EQ(root_of_op.count(ev.op_id), 1u) << ev.name << " outside";
    const TraceEvent* at = &ev;
    for (int hops = 0; hops < 16 && at->parent_span != 0; ++hops) {
      auto parent = by_span.find(at->parent_span);
      ASSERT_NE(parent, by_span.end()) << ev.name << " lost its parent";
      at = parent->second;
    }
    EXPECT_EQ(at, root_of_op[ev.op_id]) << ev.name << " off the tree";
    if (std::string(ev.name) == "locator.find") ++walks_of_op[ev.op_id];
  }
  for (const auto& [op, root] : root_of_op) {
    EXPECT_EQ(walks_of_op[op], 2) << "UAK directory and object walks";
  }
}

}  // namespace
}  // namespace obs
}  // namespace stegfs
