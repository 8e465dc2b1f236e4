// BlockDevice: the storage abstraction every file system in this repo sits
// on (RocksDB's Env idiom, narrowed to fixed-size block I/O).
//
// Implementations:
//   MemBlockDevice  - RAM-backed, for tests and simulation
//   FileBlockDevice - host-file-backed, for persistent example volumes
//   SimDisk         - wraps another device, charges a DiskModel for every
//                     request and records I/O traces (blockdev/sim_disk.h)
#ifndef STEGFS_BLOCKDEV_BLOCK_DEVICE_H_
#define STEGFS_BLOCKDEV_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace stegfs {

// What Flush() promises. kDurable reaches stable storage (fdatasync on
// file-backed devices); kCacheOnly stops at the kernel page cache — the
// pre-journal behavior, kept as a bench escape hatch because an fdatasync
// per flush is a real cost the throughput benches should not pay.
// Sync() is ALWAYS durable regardless of this mode: it is the journal's
// write barrier and must never be weakened.
enum class FlushDurability { kDurable, kCacheOnly };

// One element of a vectored request: a block number and the caller buffer
// it transfers to/from (block_size() bytes each).
struct BlockIoVec {
  uint64_t block;
  uint8_t* buf;
};
struct ConstBlockIoVec {
  uint64_t block;
  const uint8_t* buf;
};

// The vectored form of n blocks laid back to back in `buf` (block i at
// buf + i * block_size): how the contiguous (blocks, n, buf) calls of the
// block stores and the cache reach their vectored bodies.
template <typename Vec, typename Byte>
std::vector<Vec> BackToBack(const uint64_t* blocks, size_t n, Byte* buf,
                            size_t block_size) {
  std::vector<Vec> iov(n);
  for (size_t i = 0; i < n; ++i) iov[i] = {blocks[i], buf + i * block_size};
  return iov;
}

// Per-device instrument group. Concrete devices own one and expose it via
// device_metrics(); decorators (SimDisk, ThrottledBlockDevice) forward the
// inner device's, so a mount registers the real backing device whatever
// the stack looks like. Latency histograms are recorded per vectored call
// and per barrier — never per block — so the hot path pays one clock pair
// per device call, not per 4 KB; single-block ops bump only a relaxed
// counter.
struct DeviceMetrics {
  obs::Histogram read_ns;   // vectored read call latency
  obs::Histogram write_ns;  // vectored write call latency
  obs::Histogram sync_ns;   // Sync() barrier latency
  obs::Counter blocks_read;
  obs::Counter blocks_written;
  obs::Counter syncs;            // Sync() barriers
  // Blocks moved through a vectored fast path, and physical transfers
  // that coalesced a contiguous run of >= 2 blocks into one host I/O
  // (both stay zero on devices with only the per-block fallback).
  obs::Counter vectored_blocks;
  obs::Counter coalesced_runs;

  void RegisterWith(obs::MetricsRegistry* reg) const {
    reg->RegisterHistogram("stegfs_device_read_seconds",
                           "Vectored device read call latency", &read_ns);
    reg->RegisterHistogram("stegfs_device_write_seconds",
                           "Vectored device write call latency", &write_ns);
    reg->RegisterHistogram("stegfs_device_sync_seconds",
                           "Device barrier (Sync) latency", &sync_ns);
    reg->RegisterCounter("stegfs_device_blocks_read_total",
                         "Blocks read from the device", &blocks_read);
    reg->RegisterCounter("stegfs_device_blocks_written_total",
                         "Blocks written to the device", &blocks_written);
    reg->RegisterCounter("stegfs_device_syncs_total",
                         "Device barriers issued", &syncs);
    reg->RegisterCounter("stegfs_device_vectored_blocks_total",
                         "Blocks moved through vectored calls",
                         &vectored_blocks);
    reg->RegisterCounter("stegfs_device_coalesced_runs_total",
                         "Contiguous runs coalesced into one host I/O",
                         &coalesced_runs);
  }
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Fixed block size in bytes. Power of two, >= 512.
  virtual uint32_t block_size() const = 0;
  // Total number of blocks on the device.
  virtual uint64_t num_blocks() const = 0;

  // Reads/writes exactly one block. `buf` must hold block_size() bytes.
  // Fails with InvalidArgument on out-of-range block numbers.
  virtual Status ReadBlock(uint64_t block, uint8_t* buf) = 0;
  virtual Status WriteBlock(uint64_t block, const uint8_t* buf) = 0;

  // Vectored I/O: transfers `n` blocks in request order. The base
  // implementation loops over ReadBlock/WriteBlock, so every decorator
  // (SimDisk, ThrottledBlockDevice, the test FaultyDevice) keeps its
  // per-request accounting unchanged; FileBlockDevice overrides to
  // coalesce contiguous runs into single host transfers. On error the
  // request stops at the failing block — earlier blocks have transferred,
  // later ones have not.
  virtual Status ReadBlocks(const BlockIoVec* iov, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      STEGFS_RETURN_IF_ERROR(ReadBlock(iov[i].block, iov[i].buf));
    }
    return Status::OK();
  }
  virtual Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      STEGFS_RETURN_IF_ERROR(WriteBlock(iov[i].block, iov[i].buf));
    }
    return Status::OK();
  }

  // The device's instrument group, when it keeps one (nullptr otherwise).
  // Decorators forward the inner device's group — accounting belongs to
  // the device doing the physical I/O.
  virtual const DeviceMetrics* device_metrics() const { return nullptr; }

  // Persists all completed writes with the device's flush durability
  // (durable by default on file-backed devices; see FlushDurability).
  virtual Status Flush() = 0;

  // Write barrier: returns only when every completed write is on stable
  // storage, regardless of flush_durability(). The journal's commit
  // protocol is built on this; decorators must forward it so barrier
  // ordering survives any device stack. In-memory devices complete
  // immediately. Sync() orders only COMPLETED writes; every write in the
  // stack completes before its caller returns (the async engine carries
  // reads only), so a barrier needs no engine drain.
  virtual Status Sync() { return Flush(); }

  // Adjusts what Flush() promises. Default no-op: only devices with a
  // page-cache/stable-storage distinction (FileBlockDevice) implement it.
  virtual void set_flush_durability(FlushDurability mode) { (void)mode; }
  virtual FlushDurability flush_durability() const {
    return FlushDurability::kDurable;
  }

  uint64_t capacity_bytes() const {
    return static_cast<uint64_t>(block_size()) * num_blocks();
  }
};

}  // namespace stegfs

#endif  // STEGFS_BLOCKDEV_BLOCK_DEVICE_H_
