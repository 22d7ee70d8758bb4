#include "bitmap/bitvector.h"

#include <bit>
#include <cstring>

#include "bitmap/popcount.h"

namespace bix {

namespace {
constexpr size_t kWordBits = 64;

size_t NumWords(size_t num_bits) { return (num_bits + kWordBits - 1) / kWordBits; }
}  // namespace

Bitvector::Bitvector(size_t num_bits, bool value)
    : num_bits_(num_bits),
      words_(NumWords(num_bits), value ? ~uint64_t{0} : uint64_t{0}) {
  if (value) ClearTail();
}

void Bitvector::ClearTail() {
  size_t tail = num_bits_ & (kWordBits - 1);
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

void Bitvector::Resize(size_t num_bits) {
  size_t old_bits = num_bits_;
  num_bits_ = num_bits;
  words_.resize(NumWords(num_bits), 0);
  if (num_bits < old_bits) ClearTail();
}

void Bitvector::Reserve(size_t num_bits) { words_.reserve(NumWords(num_bits)); }

void Bitvector::AndWith(const Bitvector& other) {
  BIX_CHECK(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void Bitvector::OrWith(const Bitvector& other) {
  BIX_CHECK(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void Bitvector::XorWith(const Bitvector& other) {
  BIX_CHECK(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
}

void Bitvector::AndNotWith(const Bitvector& other) {
  BIX_CHECK(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
}

void Bitvector::NotInPlace() {
  for (uint64_t& w : words_) w = ~w;
  ClearTail();
}

size_t Bitvector::Count() const {
  size_t count = 0;
  for (uint64_t x : words_) count += Popcount64(x);
  return count;
}

bool Bitvector::Any() const {
  for (uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

bool Bitvector::All() const {
  if (num_bits_ == 0) return true;
  size_t full_words = num_bits_ / kWordBits;
  for (size_t i = 0; i < full_words; ++i) {
    if (words_[i] != ~uint64_t{0}) return false;
  }
  size_t tail = num_bits_ & (kWordBits - 1);
  if (tail != 0) {
    uint64_t mask = (uint64_t{1} << tail) - 1;
    if ((words_.back() & mask) != mask) return false;
  }
  return true;
}

size_t Bitvector::NextSetBit(size_t from) const {
  if (from >= num_bits_) return num_bits_;
  size_t w = from >> 6;
  uint64_t word = words_[w] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (word != 0) {
      size_t pos = (w << 6) + static_cast<size_t>(std::countr_zero(word));
      return pos < num_bits_ ? pos : num_bits_;
    }
    if (++w == words_.size()) return num_bits_;
    word = words_[w];
  }
}

std::vector<uint32_t> Bitvector::ToSetBitIndices() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  ForEachSetBit([&out](size_t i) { out.push_back(static_cast<uint32_t>(i)); });
  return out;
}

// The byte image is the little-endian word image truncated to
// ceil(num_bits / 8) bytes, so both directions are a single copy.
static_assert(std::endian::native == std::endian::little,
              "Bitvector byte images assume a little-endian host");

std::vector<uint8_t> Bitvector::ToBytes() const {
  std::vector<uint8_t> bytes((num_bits_ + 7) / 8);
  if (!bytes.empty()) std::memcpy(bytes.data(), words_.data(), bytes.size());
  return bytes;
}

Bitvector Bitvector::FromBytes(std::span<const uint8_t> bytes, size_t num_bits) {
  const size_t num_bytes = (num_bits + 7) / 8;
  BIX_CHECK(bytes.size() >= num_bytes);
  Bitvector bv(num_bits);
  if (num_bytes != 0) std::memcpy(bv.words_.data(), bytes.data(), num_bytes);
  bv.ClearTail();
  return bv;
}

}  // namespace bix
