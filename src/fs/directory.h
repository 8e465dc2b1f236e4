// Directory entry format and operations, layered on FileIo.
//
// Directories are files of fixed 64-byte entries:
//   [u32 inode][u8 name_len][59-byte name]
// name_len == 0 marks a free slot. Fixed-size entries keep lookup and
// removal trivially crash-safe (one-block read-modify-write per entry).
#ifndef STEGFS_FS_DIRECTORY_H_
#define STEGFS_FS_DIRECTORY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fs/file_io.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

inline constexpr uint32_t kDirEntrySize = 64;
inline constexpr uint32_t kMaxNameLen = kDirEntrySize - 5;

struct DirEntry {
  std::string name;
  uint32_t inode = 0;
};

// Stateless directory operations over a directory inode. Slots read back
// are checked before they are trusted: a name that overruns its slot
// matches no Lookup or Remove, an inode number past the table's
// `num_inodes` is Corruption when Lookup would return it, and List reports
// either as Corruption.
class Directory {
 public:
  Directory(FileIo* io, uint32_t num_inodes)
      : io_(io), num_inodes_(num_inodes) {}

  // Finds `name`; returns its inode number.
  StatusOr<uint32_t> Lookup(const Inode& dir, const std::string& name,
                            BlockStore* store);

  // Adds an entry (no duplicate checking — callers Lookup first).
  Status Add(Inode* dir, const std::string& name, uint32_t ino,
             BlockStore* store, BlockAllocator* alloc, bool* inode_dirty);

  // Removes the entry for `name`; NotFound if absent.
  Status Remove(Inode* dir, const std::string& name, BlockStore* store,
                BlockAllocator* alloc, bool* inode_dirty);

  // All live entries.
  StatusOr<std::vector<DirEntry>> List(const Inode& dir, BlockStore* store);

  // True when the directory has no live entries.
  StatusOr<bool> Empty(const Inode& dir, BlockStore* store);

 private:
  FileIo* io_;
  uint32_t num_inodes_;
};

}  // namespace stegfs

#endif  // STEGFS_FS_DIRECTORY_H_
