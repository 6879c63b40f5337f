// Protocol-level oblivious counters (paper §5.2, Algorithm 2's "Encrypted
// messages structure").
//
// Every Secure-Scalable-Majority message carries one packed cipher per vote
// instance with the layout
//
//   field 0: sum    — votes in favour (transactions containing X ∪ Y)
//   field 1: count  — votes cast      (transactions containing X)
//   field 2: num    — resources whose inputs are included
//   field 3: share  — anti-tamper share (sums to 1 over a full aggregate)
//   field 4+i: timestamp slot i of the *receiving* resource's layout
//              (slot 0 = the resource's own accountant, slots 1..d = its
//              neighbours)
//
// The paper sends three separate oblivious counters (sum, count, num), each
// with its own share and timestamp vector; we vectorize all three into one
// cipher using the paper's own §4.2 packing — the checks are identical and
// the message count drops 3x.
//
// Field-overflow discipline (what makes packed addition exact):
//   * sum/count/num only ever grow by bounded database counts (< 2^48).
//   * share values are drawn modulo 2^48 and verified modulo 2^48, leaving
//     16 slack bits, so up to 65536 counters can be aggregated before a
//     carry could reach the next field.
//   * timestamp slots are disjoint across senders (each sender writes only
//     its own slot), so slot addition never exceeds one Lamport clock value.
//
// Performance: aggregation chains many homomorphic adds/rerandomizations per
// counter per round. Under the Paillier backend every Cipher carries a
// Montgomery-form cache (hom.hpp), so a chained add costs two Montgomery
// multiplications instead of four. Each rerandomization pays one
// r^n modexp for its blinding factor, drawn from the caller's Rng; the
// batch APIs run those modexps through the interleaved kernels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/hom.hpp"
#include "util/check.hpp"

namespace kgrid::hom {

/// The share field is verified modulo 2^48 (16 slack bits for carries).
inline constexpr std::uint64_t kShareModulus = 1ull << 48;

/// Field layout of a counter addressed to a resource with `degree`
/// neighbours.
class CounterLayout {
 public:
  explicit CounterLayout(std::size_t degree) : degree_(degree) {}

  std::size_t degree() const { return degree_; }
  std::size_t n_fields() const { return 4 + ts_slots(); }
  std::size_t ts_slots() const { return degree_ + 1; }  // slot 0 = self

  static constexpr std::size_t kSum = 0;
  static constexpr std::size_t kCount = 1;
  static constexpr std::size_t kNum = 2;
  static constexpr std::size_t kShare = 3;
  std::size_t ts_field(std::size_t slot) const {
    KGRID_CHECK(slot < ts_slots(), "timestamp slot out of range");
    return 4 + slot;
  }

 private:
  std::size_t degree_;
};

/// Decrypted view of a counter, produced only by controllers (DecryptKey).
struct CounterView {
  std::int64_t sum = 0;
  std::int64_t count = 0;
  std::int64_t num = 0;
  std::uint64_t share = 0;   // already reduced mod kShareModulus
  FieldVec timestamps;       // one per layout slot (inline small-buf)

  static CounterView from_fields(const CounterLayout& layout,
                                 std::span<const std::uint64_t> fields) {
    // A plain-backend cipher stores only the fields written so far; the
    // homomorphic-add identity for absent fields is zero, so a short
    // plaintext span reads as trailing zeros rather than an error.
    CounterView v;
    const auto get = [&](std::size_t i) {
      return i < fields.size() ? fields[i] : std::uint64_t{0};
    };
    v.sum = static_cast<std::int64_t>(get(CounterLayout::kSum));
    v.count = static_cast<std::int64_t>(get(CounterLayout::kCount));
    v.num = static_cast<std::int64_t>(get(CounterLayout::kNum));
    v.share = get(CounterLayout::kShare) % kShareModulus;
    v.timestamps.reserve(layout.ts_slots());
    for (std::size_t s = 0; s < layout.ts_slots(); ++s)
      v.timestamps.push_back(get(layout.ts_field(s)));
    return v;
  }
};

/// Encrypt a counter with the given fields. `share` is a raw share value
/// (mod kShareModulus); `ts_slot`/`ts` place one timestamp, all other slots
/// zero.
inline Cipher make_counter(const EncryptKey& key, const CounterLayout& layout,
                           std::uint64_t sum, std::uint64_t count,
                           std::uint64_t num, std::uint64_t share,
                           std::size_t ts_slot, std::uint64_t ts, Rng& rng) {
  // Stack buffer for the common case — one counter is encrypted per granted
  // send, so this is a hot call; only extreme hub degrees spill to the heap.
  constexpr std::size_t kStack = 64;
  const std::size_t n = layout.n_fields();
  std::uint64_t stack[kStack];
  std::vector<std::uint64_t> heap;
  std::uint64_t* fields;
  if (n <= kStack) {
    fields = stack;
    std::fill_n(fields, n, std::uint64_t{0});
  } else {
    heap.assign(n, 0);
    fields = heap.data();
  }
  fields[CounterLayout::kSum] = sum;
  fields[CounterLayout::kCount] = count;
  fields[CounterLayout::kNum] = num;
  fields[CounterLayout::kShare] = share % kShareModulus;
  fields[layout.ts_field(ts_slot)] = ts;
  return key.encrypt(std::span<const std::uint64_t>(fields, n), rng);
}

/// Encrypt a share token: zero everywhere except the share field. Brokers
/// homomorphically add this to outgoing counters; because it is encrypted
/// they can neither read nor forge it (paper §5.2).
inline Cipher make_share_token(const EncryptKey& key, const CounterLayout& layout,
                               std::uint64_t share, Rng& rng) {
  std::vector<std::uint64_t> fields(layout.n_fields(), 0);
  fields[CounterLayout::kShare] = share % kShareModulus;
  return key.encrypt(fields, rng);
}

/// Draw `n_parties` random shares summing to 1 modulo kShareModulus
/// (Algorithm 2: "create and distribute random shares such that
/// sum D(share) = 1").
inline std::vector<std::uint64_t> draw_shares(std::size_t n_parties, Rng& rng) {
  KGRID_CHECK(n_parties >= 1, "draw_shares needs at least one party");
  std::vector<std::uint64_t> shares(n_parties);
  std::uint64_t running = 0;
  for (std::size_t i = 0; i + 1 < n_parties; ++i) {
    shares[i] = rng.below(kShareModulus);
    running = (running + shares[i]) % kShareModulus;
  }
  shares[n_parties - 1] = (1 + kShareModulus - running) % kShareModulus;
  return shares;
}

}  // namespace kgrid::hom
