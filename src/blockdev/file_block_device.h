// Host-file-backed block device, used by the runnable examples so a StegFS
// volume persists across process runs (and so `steg_backup` has a real file
// to image).
//
// Backed by a raw file descriptor and positional I/O (pread/pwrite), so:
//   - every transfer is atomic at the syscall level — no shared seek
//     pointer, no lock, any number of threads issue I/O concurrently
//     (the C API's thread-safe handle contract);
//   - volumes larger than 2 GB address correctly (64-bit offsets, which
//     the previous long-based fseek path could not).
#ifndef STEGFS_BLOCKDEV_FILE_BLOCK_DEVICE_H_
#define STEGFS_BLOCKDEV_FILE_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "blockdev/block_device.h"
#include "util/statusor.h"

namespace stegfs {

class FileBlockDevice : public BlockDevice {
 public:
  // Creates (or truncates) a volume file of the given geometry.
  static StatusOr<std::unique_ptr<FileBlockDevice>> Create(
      const std::string& path, uint32_t block_size, uint64_t num_blocks);
  // Opens an existing volume file; geometry must match the file size.
  static StatusOr<std::unique_ptr<FileBlockDevice>> Open(
      const std::string& path, uint32_t block_size);

  ~FileBlockDevice() override;

  uint32_t block_size() const override { return block_size_; }
  uint64_t num_blocks() const override { return num_blocks_; }
  Status ReadBlock(uint64_t block, uint8_t* buf) override;
  Status WriteBlock(uint64_t block, const uint8_t* buf) override;
  // Vectored path: contiguous ascending runs inside the request are
  // coalesced into single positional host I/Os (gather/scatter through a
  // scratch buffer when the caller buffers aren't adjacent).
  Status ReadBlocks(const BlockIoVec* iov, size_t n) override;
  Status WriteBlocks(const ConstBlockIoVec* iov, size_t n) override;
  // fdatasync by default: a volume that survives `steg_unmount` must also
  // survive the power cut right after it. set_flush_durability(kCacheOnly)
  // makes it a page-cache-only flush for benchmarks that only measure the
  // data path.
  Status Flush() override;
  // Unconditional fdatasync — the journal's write barrier.
  Status Sync() override;
  const DeviceMetrics* device_metrics() const override { return &metrics_; }
  void set_flush_durability(FlushDurability mode) override {
    durability_.store(mode, std::memory_order_relaxed);
  }
  FlushDurability flush_durability() const override {
    return durability_.load(std::memory_order_relaxed);
  }

 private:
  FileBlockDevice(int fd, uint32_t block_size, uint64_t num_blocks)
      : fd_(fd), block_size_(block_size), num_blocks_(num_blocks) {}

  // Length (in blocks) of the contiguous ascending run starting at iov[i],
  // capped so one scratch transfer stays <= kMaxRunBytes.
  template <typename Vec>
  size_t RunLength(const Vec* iov, size_t n, size_t i) const;

  int fd_;
  uint32_t block_size_;
  uint64_t num_blocks_;
  std::atomic<FlushDurability> durability_{FlushDurability::kDurable};
  DeviceMetrics metrics_;
};

}  // namespace stegfs

#endif  // STEGFS_BLOCKDEV_FILE_BLOCK_DEVICE_H_
