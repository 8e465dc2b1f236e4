#include "crypto/gf256.h"

#include <algorithm>
#include <cassert>

#include "crypto/gf256_simd.h"

namespace stegfs {
namespace crypto {

namespace {

// exp/log tables over generator 0x03 for the AES polynomial 0x11b.
struct Gf256Tables {
  uint8_t exp[512];
  uint8_t log[256];

  Gf256Tables() {
    uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<uint8_t>(x);
      log[x] = static_cast<uint8_t>(i);
      // multiply x by the generator 3 = x * 2 + x.
      uint16_t x2 = x << 1;
      if (x2 & 0x100) x2 ^= 0x11b;
      x = static_cast<uint16_t>(x2 ^ x);
      if (x & 0x100) x ^= 0x11b;
    }
    for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    log[0] = 0;  // undefined; guarded by callers
  }
};

const Gf256Tables& Tables() {
  static const Gf256Tables tables;
  return tables;
}

}  // namespace

uint8_t Gf256::Mul(uint8_t a, uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const Gf256Tables& t = Tables();
  return t.exp[t.log[a] + t.log[b]];
}

uint8_t Gf256::Div(uint8_t a, uint8_t b) {
  assert(b != 0);
  if (a == 0) return 0;
  const Gf256Tables& t = Tables();
  return t.exp[t.log[a] + 255 - t.log[b]];
}

uint8_t Gf256::Inv(uint8_t a) {
  assert(a != 0);
  const Gf256Tables& t = Tables();
  return t.exp[255 - t.log[a]];
}

uint8_t Gf256::Pow(uint8_t a, unsigned e) {
  uint8_t result = 1;
  while (e > 0) {
    if (e & 1) result = Mul(result, a);
    a = Mul(a, a);
    e >>= 1;
  }
  return result;
}

std::vector<uint8_t> IdaRow(uint8_t index, int m) {
  std::vector<uint8_t> row(m, 0);
  if (index < m) {
    row[index] = 1;  // systematic: data stripe passes through
    return row;
  }
  // Cauchy row: c_j = 1 / (x ^ y_j) with x = index (>= m), y_j = j (< m).
  // Every square submatrix of [I; Cauchy] is invertible, so ANY m shares
  // reconstruct.
  for (int j = 0; j < m; ++j) {
    row[j] = Gf256::Inv(static_cast<uint8_t>(index ^ j));
  }
  return row;
}

void IdaEncodeParity(const uint8_t* const* blocks, int m, int n, size_t len,
                     uint8_t* const* parity) {
  assert(m >= 1 && n >= m);
  for (int i = m; i < n; ++i) {
    std::vector<uint8_t> row = IdaRow(static_cast<uint8_t>(i), m);
    GfDotProd(row.data(), blocks, m, parity[i - m], len);
  }
}

std::vector<std::vector<uint8_t>> IdaEncodeStripe(
    const std::vector<std::vector<uint8_t>>& blocks, int n) {
  const int m = static_cast<int>(blocks.size());
  assert(m >= 1 && n >= m);
  const size_t len = blocks[0].size();
  std::vector<std::vector<uint8_t>> shares(n);
  std::vector<const uint8_t*> data(m);
  for (int i = 0; i < m; ++i) {
    shares[i] = blocks[i];
    data[i] = blocks[i].data();
  }
  std::vector<uint8_t*> parity(n - m);
  for (int i = m; i < n; ++i) {
    shares[i].resize(len);
    parity[i - m] = shares[i].data();
  }
  IdaEncodeParity(data.data(), m, n, len, parity.data());
  return shares;
}

StatusOr<std::vector<std::vector<uint8_t>>> IdaDecodeStripe(
    const std::vector<std::pair<uint8_t, std::vector<uint8_t>>>& shares,
    int m) {
  if (static_cast<int>(shares.size()) < m) {
    return Status::InvalidArgument("need at least m shares");
  }
  const size_t len = shares[0].second.size();
  // The first m distinct shares and their coefficient rows.
  std::vector<std::vector<uint8_t>> mat;
  std::vector<const uint8_t*> chosen;
  std::vector<bool> seen(256, false);
  for (const auto& [index, block] : shares) {
    if (seen[index] || static_cast<int>(chosen.size()) == m) continue;
    if (block.size() != len) {
      return Status::InvalidArgument("share length mismatch");
    }
    seen[index] = true;
    mat.push_back(IdaRow(index, m));
    chosen.push_back(block.data());
  }
  if (static_cast<int>(chosen.size()) < m) {
    return Status::InvalidArgument("fewer than m distinct shares");
  }
  // Gauss-Jordan on [mat | inv] with scalar field arithmetic: m x m bytes,
  // not m whole blocks.
  std::vector<std::vector<uint8_t>> inv(m, std::vector<uint8_t>(m, 0));
  for (int r = 0; r < m; ++r) inv[r][r] = 1;
  for (int col = 0; col < m; ++col) {
    int pivot = col;
    while (pivot < m && mat[pivot][col] == 0) ++pivot;
    if (pivot == m) return Status::Corruption("singular share matrix");
    std::swap(mat[col], mat[pivot]);
    std::swap(inv[col], inv[pivot]);
    const uint8_t scale = Gf256::Inv(mat[col][col]);
    for (int c = 0; c < m; ++c) {
      mat[col][c] = Gf256::Mul(mat[col][c], scale);
      inv[col][c] = Gf256::Mul(inv[col][c], scale);
    }
    for (int r = 0; r < m; ++r) {
      const uint8_t factor = mat[r][col];
      if (r == col || factor == 0) continue;
      for (int c = 0; c < m; ++c) {
        mat[r][c] ^= Gf256::Mul(factor, mat[col][c]);
        inv[r][c] ^= Gf256::Mul(factor, inv[col][c]);
      }
    }
  }
  // Data block r = inv row r . chosen shares; a unit row (a data share
  // that arrived intact) is a copy.
  std::vector<std::vector<uint8_t>> data(m);
  for (int r = 0; r < m; ++r) {
    const std::vector<uint8_t>& row = inv[r];
    const auto one = std::find(row.begin(), row.end(), 1);
    if (one != row.end() && std::count(row.begin(), row.end(), 0) == m - 1) {
      const uint8_t* src = chosen[one - row.begin()];
      data[r].assign(src, src + len);
    } else {
      data[r].resize(len);
      GfDotProd(row.data(), chosen.data(), m, data[r].data(), len);
    }
  }
  return data;
}

}  // namespace crypto
}  // namespace stegfs
