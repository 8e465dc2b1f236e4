/* The C binding compiled and run as strict C99: the header's promise of a
 * C-compatible API, checked by a caller with no C++ in it. Runs
 * mkfs -> mount -> plain write -> stats -> metric -> unmount on the image
 * path given as argv[1] and exits non-zero on the first failure. */
#include <stdio.h>
#include <string.h>

#include "capi/steg_api.h"

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__, \
              #cond);                                                \
      return 1;                                                      \
    }                                                                \
  } while (0)

int main(int argc, char** argv) {
  const char* image = argc > 1 ? argv[1] : "capi_c_test.img";
  stegfs_volume* vol = NULL;
  stegfs_stats stats;
  uint64_t records = 0;
  int rc;

  remove(image);
  CHECK(steg_mkfs(image, 1024, 32768) == STEG_OK);
  CHECK(steg_mount(image, 1024, &vol) == STEG_OK);
  CHECK(steg_plain_write(vol, "/c.txt", "from c", 6) == STEG_OK);

  CHECK(steg_stats(vol, &stats) == STEG_OK);
  CHECK(stats.block_size == 1024);
  CHECK(stats.total_blocks == 32768);
  CHECK(stats.plain_file_bytes == 6);
  CHECK(strcmp(stats.durability, "journal") == 0);
  CHECK(stats.health == STEG_HEALTH_HEALTHY);
  CHECK(strcmp(stats.health_name, "healthy") == 0);

  CHECK(steg_metric(vol, "stegfs_journal_records_committed_total",
                    &records) == STEG_OK);
  CHECK(records > 0);
  CHECK(steg_metric(vol, "stegfs_no_such_series_total", &records) ==
        STEG_ERR_NOT_FOUND);

  rc = steg_unmount(vol);
  remove(image);
  CHECK(rc == STEG_OK);
  puts("capi_c_test: OK");
  return 0;
}
