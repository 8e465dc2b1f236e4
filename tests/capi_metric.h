// Shared by the C API suites: one registry counter read through
// steg_metric, failing the calling test when the series is missing.
#ifndef STEGFS_TESTS_CAPI_METRIC_H_
#define STEGFS_TESTS_CAPI_METRIC_H_

#include <gtest/gtest.h>

#include <cstdint>

#include "capi/steg_api.h"

namespace stegfs {
namespace test {

inline uint64_t Metric(stegfs_volume* vol, const char* name) {
  uint64_t value = 0;
  EXPECT_EQ(steg_metric(vol, name, &value), STEG_OK) << name;
  return value;
}

}  // namespace test
}  // namespace stegfs

#endif  // STEGFS_TESTS_CAPI_METRIC_H_
