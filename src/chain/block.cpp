#include "chain/block.h"

#include <array>
#include <cstring>

#include "common/hot_path.h"
#include "common/sha256.h"

namespace txconc::chain {

namespace {

/// Little-endian store, the byte order ByteWriter uses for integers.
template <typename T>
void store_le(std::uint8_t* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// The ByteWriter encoding (little-endian integers, u32 length prefixes)
/// written into a stack buffer that is fed to a hasher whenever it fills,
/// so hashing a transaction allocates nothing. Buffering keeps the hasher
/// to one update per 256 bytes instead of one per field.
class HashWriter {
 public:
  void u8(std::uint8_t v) { put(&v, 1); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void raw(std::span<const std::uint8_t> data) {
    put(data.data(), data.size());
  }
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  Hash256 digest() {
    flush();
    Hash256 h;
    h.bytes = sha_.finalize();
    return h;
  }

 private:
  template <typename T>
  void le(T v) {
    std::array<std::uint8_t, sizeof(T)> out;
    store_le(out.data(), v);
    put(out.data(), out.size());
  }

  void put(const std::uint8_t* data, std::size_t n) {
    if (n == 0) return;  // an empty vector's data() may be null
    if (used_ + n > buf_.size()) {
      flush();
      if (n > buf_.size()) {
        sha_.update(std::span(data, n));
        return;
      }
    }
    std::memcpy(buf_.data() + used_, data, n);
    used_ += n;
  }

  void flush() {
    sha_.update(std::span(buf_.data(), used_));
    used_ = 0;
  }

  Sha256 sha_;
  std::array<std::uint8_t, 256> buf_;
  std::size_t used_ = 0;
};

}  // namespace

TXCONC_HOT Hash256 tx_hash(const account::AccountTx& tx) {
  HashWriter w;
  w.raw(tx.from.bytes);
  w.u8(tx.to.has_value() ? 1 : 0);
  if (tx.to) w.raw(tx.to->bytes);
  w.u64(tx.value);
  w.u64(tx.gas_limit);
  w.u64(tx.gas_price);
  w.u64(tx.nonce);
  w.u32(static_cast<std::uint32_t>(tx.args.size()));
  for (std::uint64_t arg : tx.args) w.u64(arg);
  w.u32(static_cast<std::uint32_t>(tx.address_args.size()));
  for (const Address& a : tx.address_args) w.raw(a.bytes);
  w.bytes(tx.init_code.code);
  w.u32(static_cast<std::uint32_t>(tx.init_code.address_table.size()));
  for (const Address& a : tx.init_code.address_table) w.raw(a.bytes);
  return w.digest();
}

TXCONC_HOT Hash256 BlockHeader::hash() const {
  // prev_hash | merkle_root | state_root | height | timestamp | gas_used,
  // integers little-endian.
  std::array<std::uint8_t, 120> raw;
  std::memcpy(raw.data(), prev_hash.bytes.data(), 32);
  std::memcpy(raw.data() + 32, merkle_root.bytes.data(), 32);
  std::memcpy(raw.data() + 64, state_root.bytes.data(), 32);
  store_le(raw.data() + 96, height);
  store_le(raw.data() + 104, timestamp);
  store_le(raw.data() + 112, gas_used);
  Hash256 h;
  h.bytes = Sha256::hash_twice(raw);
  return h;
}

}  // namespace txconc::chain
