#include "fs/directory.h"

#include <cstring>

#include "util/coding.h"

namespace stegfs {

namespace {

void EncodeEntry(uint8_t* buf, const std::string& name, uint32_t ino) {
  std::memset(buf, 0, kDirEntrySize);
  EncodeFixed32(buf, ino);
  buf[4] = static_cast<uint8_t>(name.size());
  std::memcpy(buf + 5, name.data(), name.size());
}

// True when the slot at `p` is live and holds exactly `name`.
bool SlotHolds(const uint8_t* p, const std::string& name) {
  const uint8_t len = p[4];
  return len != 0 && len <= kMaxNameLen && len == name.size() &&
         std::memcmp(p + 5, name.data(), len) == 0;
}

}  // namespace

StatusOr<uint32_t> Directory::Lookup(const Inode& dir, const std::string& name,
                                     BlockStore* store) {
  std::string data;
  STEGFS_RETURN_IF_ERROR(io_->Read(dir, 0, dir.size, store, &data));
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
  for (size_t off = 0; off + kDirEntrySize <= data.size();
       off += kDirEntrySize) {
    if (!SlotHolds(p + off, name)) continue;
    const uint32_t ino = DecodeFixed32(p + off);
    if (ino >= num_inodes_) {
      return Status::Corruption("directory entry names no inode: " + name);
    }
    return ino;
  }
  return Status::NotFound("no directory entry: " + name);
}

Status Directory::Add(Inode* dir, const std::string& name, uint32_t ino,
                      BlockStore* store, BlockAllocator* alloc,
                      bool* inode_dirty) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return Status::InvalidArgument("directory entry name length invalid");
  }
  // Reuse the first free slot, else append.
  std::string data;
  STEGFS_RETURN_IF_ERROR(io_->Read(*dir, 0, dir->size, store, &data));
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
  uint64_t slot_offset = dir->size;
  for (size_t off = 0; off + kDirEntrySize <= data.size();
       off += kDirEntrySize) {
    if (p[off + 4] == 0) {
      slot_offset = off;
      break;
    }
  }
  uint8_t entry[kDirEntrySize];
  EncodeEntry(entry, name, ino);
  return io_->Write(dir, slot_offset,
                    std::string_view(reinterpret_cast<char*>(entry),
                                     kDirEntrySize),
                    store, alloc, inode_dirty);
}

Status Directory::Remove(Inode* dir, const std::string& name,
                         BlockStore* store, BlockAllocator* alloc,
                         bool* inode_dirty) {
  std::string data;
  STEGFS_RETURN_IF_ERROR(io_->Read(*dir, 0, dir->size, store, &data));
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
  for (size_t off = 0; off + kDirEntrySize <= data.size();
       off += kDirEntrySize) {
    if (SlotHolds(p + off, name)) {
      uint8_t zero[kDirEntrySize] = {0};
      return io_->Write(dir, off,
                        std::string_view(reinterpret_cast<char*>(zero),
                                         kDirEntrySize),
                        store, alloc, inode_dirty);
    }
  }
  return Status::NotFound("no directory entry: " + name);
}

StatusOr<std::vector<DirEntry>> Directory::List(const Inode& dir,
                                                BlockStore* store) {
  std::string data;
  STEGFS_RETURN_IF_ERROR(io_->Read(dir, 0, dir.size, store, &data));
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
  std::vector<DirEntry> out;
  for (size_t off = 0; off + kDirEntrySize <= data.size();
       off += kDirEntrySize) {
    uint8_t len = p[off + 4];
    if (len == 0) continue;
    DirEntry e;
    e.inode = DecodeFixed32(p + off);
    if (len > kMaxNameLen || e.inode >= num_inodes_) {
      return Status::Corruption("directory holds a malformed entry");
    }
    e.name.assign(reinterpret_cast<const char*>(p + off + 5), len);
    out.push_back(std::move(e));
  }
  return out;
}

StatusOr<bool> Directory::Empty(const Inode& dir, BlockStore* store) {
  STEGFS_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, List(dir, store));
  return entries.empty();
}

}  // namespace stegfs
