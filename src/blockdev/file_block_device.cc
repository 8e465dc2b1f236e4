#include "blockdev/file_block_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

namespace stegfs {

namespace {

// pread/pwrite may transfer less than requested; loop to the full count.
Status FullRead(int fd, uint8_t* buf, size_t n, uint64_t off) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = pread(fd, buf + done, n - done,
                      static_cast<off_t>(off + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread failed on volume file");
    }
    if (r == 0) return Status::IOError("short read from volume file");
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status FullWrite(int fd, const uint8_t* buf, size_t n, uint64_t off) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = pwrite(fd, buf + done, n - done,
                       static_cast<off_t>(off + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite failed on volume file");
    }
    if (r == 0) return Status::IOError("short write to volume file");
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::unique_ptr<FileBlockDevice>> FileBlockDevice::Create(
    const std::string& path, uint32_t block_size, uint64_t num_blocks) {
  if (block_size < 512 || (block_size & (block_size - 1)) != 0) {
    return Status::InvalidArgument("block size must be a power of two >= 512");
  }
  int fd = open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create volume file: " + path);
  }
  // Extend to full size so reads of untouched blocks succeed.
  if (ftruncate(fd, static_cast<off_t>(static_cast<uint64_t>(block_size) *
                                       num_blocks)) != 0) {
    close(fd);
    return Status::IOError("cannot size volume file: " + path);
  }
  return std::unique_ptr<FileBlockDevice>(
      new FileBlockDevice(fd, block_size, num_blocks));
}

StatusOr<std::unique_ptr<FileBlockDevice>> FileBlockDevice::Open(
    const std::string& path, uint32_t block_size) {
  int fd = open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IOError("cannot open volume file: " + path);
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    close(fd);
    return Status::IOError("cannot stat volume file: " + path);
  }
  if (st.st_size % block_size != 0) {
    close(fd);
    return Status::InvalidArgument("volume size not a multiple of block size");
  }
  uint64_t num_blocks = static_cast<uint64_t>(st.st_size) / block_size;
  return std::unique_ptr<FileBlockDevice>(
      new FileBlockDevice(fd, block_size, num_blocks));
}

FileBlockDevice::~FileBlockDevice() {
  if (fd_ >= 0) close(fd_);
}

Status FileBlockDevice::ReadBlock(uint64_t block, uint8_t* buf) {
  if (block >= num_blocks_) {
    return Status::InvalidArgument("read past end of device");
  }
  metrics_.blocks_read.Increment();
  return FullRead(fd_, buf, block_size_, block * block_size_);
}

Status FileBlockDevice::WriteBlock(uint64_t block, const uint8_t* buf) {
  if (block >= num_blocks_) {
    return Status::InvalidArgument("write past end of device");
  }
  metrics_.blocks_written.Increment();
  return FullWrite(fd_, buf, block_size_, block * block_size_);
}

namespace {

// Upper bound on one coalesced host transfer (bounds scratch memory when
// gather/scattering a long run).
constexpr size_t kMaxRunBytes = 4 << 20;

}  // namespace

template <typename Vec>
size_t FileBlockDevice::RunLength(const Vec* iov, size_t n, size_t i) const {
  const size_t cap = std::max<size_t>(1, kMaxRunBytes / block_size_);
  size_t len = 1;
  while (i + len < n && len < cap &&
         iov[i + len].block == iov[i].block + len) {
    ++len;
  }
  return len;
}

Status FileBlockDevice::ReadBlocks(const BlockIoVec* iov, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (iov[i].block >= num_blocks_) {
      return Status::InvalidArgument("read past end of device");
    }
  }
  obs::LatencyTimer io_timer(&metrics_.read_ns);
  metrics_.vectored_blocks.Add(n);
  metrics_.blocks_read.Add(n);
  std::vector<uint8_t> scratch;
  for (size_t i = 0; i < n;) {
    const size_t run = RunLength(iov, n, i);
    const size_t bytes = run * block_size_;
    const uint64_t off = iov[i].block * block_size_;
    if (run == 1) {
      STEGFS_RETURN_IF_ERROR(FullRead(fd_, iov[i].buf, block_size_, off));
    } else {
      scratch.resize(bytes);
      STEGFS_RETURN_IF_ERROR(FullRead(fd_, scratch.data(), bytes, off));
      for (size_t j = 0; j < run; ++j) {
        std::memcpy(iov[i + j].buf, scratch.data() + j * block_size_,
                    block_size_);
      }
      metrics_.coalesced_runs.Increment();
    }
    i += run;
  }
  return Status::OK();
}

Status FileBlockDevice::WriteBlocks(const ConstBlockIoVec* iov, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (iov[i].block >= num_blocks_) {
      return Status::InvalidArgument("write past end of device");
    }
  }
  obs::LatencyTimer io_timer(&metrics_.write_ns);
  metrics_.vectored_blocks.Add(n);
  metrics_.blocks_written.Add(n);
  std::vector<uint8_t> scratch;
  for (size_t i = 0; i < n;) {
    const size_t run = RunLength(iov, n, i);
    const size_t bytes = run * block_size_;
    const uint64_t off = iov[i].block * block_size_;
    if (run == 1) {
      STEGFS_RETURN_IF_ERROR(FullWrite(fd_, iov[i].buf, block_size_, off));
    } else {
      scratch.resize(bytes);
      for (size_t j = 0; j < run; ++j) {
        std::memcpy(scratch.data() + j * block_size_, iov[i + j].buf,
                    block_size_);
      }
      STEGFS_RETURN_IF_ERROR(FullWrite(fd_, scratch.data(), bytes, off));
      metrics_.coalesced_runs.Increment();
    }
    i += run;
  }
  return Status::OK();
}

Status FileBlockDevice::Flush() {
  if (durability_.load(std::memory_order_relaxed) ==
      FlushDurability::kCacheOnly) {
    return Status::OK();
  }
  return Sync();
}

Status FileBlockDevice::Sync() {
  obs::LatencyTimer sync_timer(&metrics_.sync_ns);
  metrics_.syncs.Increment();
  if (fdatasync(fd_) != 0) {
    return Status::IOError("fdatasync failed on volume file");
  }
  return Status::OK();
}

}  // namespace stegfs
