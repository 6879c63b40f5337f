// Backend-agnostic homomorphic layer with capability-separated keys.
//
// The protocol (src/core) is written against this interface:
//
//   * EncryptKey   — held by accountants; can encrypt plaintexts.
//   * EvalHandle   — held by brokers; can homomorphically add, scale, and
//                    rerandomize ciphers, but can neither create a cipher of
//                    a chosen value nor decrypt (the paper's "the broker
//                    knows neither the decryption nor the encryption keys").
//   * DecryptKey   — held by controllers; can decrypt.
//
// Two backends implement the interface:
//
//   * Backend::kPaillier — the real cryptosystem (src/crypto/paillier.*).
//   * Backend::kPlain    — an ideal-functionality stand-in whose "ciphers"
//     carry the plaintext fields plus a random salt that every operation
//     refreshes, so equal plaintexts still yield distinct ciphers exactly as
//     rerandomization guarantees. It exists because the paper's experiments
//     simulate thousands of resources; see DESIGN.md "Faithfulness notes".
//     A plain cipher is an inline value (fields and salt inside the Cipher),
//     so the stand-in pays no allocation or refcount per op; only Paillier
//     ciphers share a copy-on-write body (see Cipher).
//
// Both backends share the packed-field plaintext representation of
// packing.hpp, so all protocol logic (shares, timestamps, k-gating) is
// identical and testable under real crypto.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/paillier.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "wide/bigint.hpp"

namespace kgrid::sim {
class Executor;  // sim/executor.hpp — optional parallel lane for batch ops
}

namespace kgrid::hom {

enum class Backend { kPlain, kPaillier };

/// Field storage for plain-backend ciphers: a small-buffer vector of packed
/// 64-bit fields. Counter layouts are a handful of fields (one per tree
/// neighbor plus spares), so the common case lives inside the Cipher itself
/// and a plain-backend homomorphic op allocates nothing; high-degree hub
/// layouts spill to the heap. The heap pointer shares storage with the
/// inline buffer, which keeps a plain Cipher (and with it every in-flight
/// SecureRuleMessage event slot) compact. API is the std::vector subset the
/// hom layer uses, value semantics included.
class FieldVec {
 public:
  // Sized for protocol counters: n_fields = 4 + degree + 1, and spanning
  // trees keep most degrees <= 3, so typical counter plaintexts stay inline.
  static constexpr std::size_t kInline = 8;

  FieldVec() = default;
  FieldVec(const FieldVec& o) { assign(o.begin(), o.end()); }
  FieldVec(FieldVec&& o) noexcept { steal(o); }
  FieldVec& operator=(const FieldVec& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  FieldVec& operator=(FieldVec&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~FieldVec() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t* data() { return on_heap() ? heap_ : inline_; }
  const std::uint64_t* data() const { return on_heap() ? heap_ : inline_; }
  std::uint64_t* begin() { return data(); }
  std::uint64_t* end() { return data() + size_; }
  const std::uint64_t* begin() const { return data(); }
  const std::uint64_t* end() const { return data() + size_; }
  std::uint64_t& operator[](std::size_t i) { return data()[i]; }
  std::uint64_t operator[](std::size_t i) const { return data()[i]; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  void push_back(std::uint64_t v) {
    if (size_ == cap_) grow(std::size_t{size_} * 2);
    data()[size_++] = v;
  }

  /// Grow-only resize semantics plus shrink, zero-filling new fields (the
  /// only fill value the hom ops use).
  void resize(std::size_t n) {
    reserve(n);
    std::uint64_t* d = data();
    for (std::size_t i = size_; i < n; ++i) d[i] = 0;
    size_ = static_cast<std::uint32_t>(n);
  }

  void assign(std::size_t n, std::uint64_t v) {
    reserve(n);
    std::uint64_t* d = data();
    for (std::size_t i = 0; i < n; ++i) d[i] = v;
    size_ = static_cast<std::uint32_t>(n);
  }

  template <class It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(last - first);
    reserve(n);
    std::uint64_t* d = data();
    for (std::size_t i = 0; i < n; ++i) d[i] = static_cast<std::uint64_t>(first[i]);
    size_ = static_cast<std::uint32_t>(n);
  }

  friend bool operator==(const FieldVec& a, const FieldVec& b) {
    if (a.size_ != b.size_) return false;
    const std::uint64_t* x = a.data();
    const std::uint64_t* y = b.data();
    for (std::size_t i = 0; i < a.size_; ++i)
      if (x[i] != y[i]) return false;
    return true;
  }

 private:
  bool on_heap() const { return cap_ > kInline; }

  void grow(std::size_t want) {
    const std::size_t ncap = want < 2 * std::size_t{cap_} ? 2 * std::size_t{cap_} : want;
    auto* nd = new std::uint64_t[ncap];
    const std::uint64_t* d = data();
    for (std::size_t i = 0; i < size_; ++i) nd[i] = d[i];
    release();
    heap_ = nd;
    cap_ = static_cast<std::uint32_t>(ncap);
  }
  void release() {
    if (on_heap()) delete[] heap_;
    cap_ = kInline;
  }
  /// Take o's fields (its heap block, or a copy of its inline ones) and
  /// leave o empty; *this must hold no heap block.
  void steal(FieldVec& o) {
    if (o.on_heap()) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      o.cap_ = kInline;
    } else {
      for (std::size_t i = 0; i < o.size_; ++i) inline_[i] = o.inline_[i];
    }
    size_ = o.size_;
    o.size_ = 0;
  }

  union {
    std::uint64_t inline_[kInline] = {};  // live while cap_ == kInline
    std::uint64_t* heap_;                 // live while cap_ > kInline
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
};

/// An opaque additively-homomorphic ciphertext over packed 64-bit fields.
///
/// A plain-backend cipher is a value: its fields and salt live inline, so
/// encrypting, adding, rerandomizing, copying or storing one touches no
/// shared state and (below FieldVec::kInline fields) no allocator. A
/// Paillier cipher is one shared_ptr to a copy-on-write body holding the
/// integer mod n^2 and its Montgomery form, so copying it — a
/// resource forwarding the same SecureRuleMessage to every neighbor, a
/// broker storing the received counter per edge — is a refcount bump. The
/// homomorphic ops (hom.cpp) never write through a shared body: each
/// installs its result in a body of its own, so aliases never observe a
/// value change. The backend is implied by the representation (a cipher
/// with a Paillier body is a Paillier cipher; a default-constructed one is
/// the empty plain cipher). Sharing is an implementation detail: two
/// ciphers compare by content, never by identity.
class Cipher {
 public:
  Cipher() = default;

  Backend backend() const {
    return paillier_ != nullptr ? Backend::kPaillier : Backend::kPlain;
  }
  bool empty() const { return paillier_ == nullptr && fields_.empty(); }

  /// Ciphertext equality. Distinct encryptions/rerandomizations of the same
  /// plaintext compare unequal (probabilistic encryption), which tests rely
  /// on to assert that brokers cannot detect unchanged counters. The
  /// Montgomery-form cache is deliberately excluded: it is a redundant
  /// representation of the Paillier value, present or absent depending on
  /// the op history.
  friend bool operator==(const Cipher& a, const Cipher& b) {
    if (a.paillier_ == nullptr || b.paillier_ == nullptr)
      return a.paillier_ == b.paillier_ && a.fields_ == b.fields_ &&
             a.salt_ == b.salt_;
    return a.paillier_ == b.paillier_ ||
           a.paillier_->value == b.paillier_->value;
  }
  friend bool operator!=(const Cipher& a, const Cipher& b) { return !(a == b); }

  /// Give a Paillier cipher a private copy of its body. Callers that need
  /// copy isolation (the sharded engine's cross-lane mailboxes) use this;
  /// everything else shares bodies freely. A plain cipher is already a
  /// value, so this is a no-op for it.
  void detach() {
    if (paillier_ != nullptr && paillier_.use_count() > 1)
      paillier_ = std::make_shared<PaillierBody>(*paillier_);
  }

 private:
  friend class Context;
  friend class EncryptKey;
  friend class EvalHandle;
  friend class DecryptKey;
  // Form-cache plumbing shared by the op implementations (hom.cpp).
  friend const wide::Montgomery::Form& cipher_form(const Cipher& c,
                                                   const PaillierPublicKey& pk);
  friend void set_cipher_form(Cipher& c, wide::Montgomery::Form f,
                              const PaillierPublicKey& pk);
  friend void set_cipher_form_value(Cipher& c, wide::Montgomery::Form f,
                                    wide::BigInt value);
  // Wire codec (hom.cpp; framing handbook: docs/LIVE.md). The Montgomery
  // form cache is deliberately not serialized — it is a redundant
  // representation of the value and is rebuilt lazily on first use, so a
  // decoded cipher is functionally identical to the encoded one.
  friend void encode_cipher(util::ByteWriter& w, const Cipher& c);
  friend bool decode_cipher(util::ByteReader& r, Cipher* out);

  struct PaillierBody {
    wide::BigInt value;  // the cipher mod n^2
    // Cache of `value` in Montgomery form over n^2, so chained homomorphic
    // ops skip the per-op R-conversions. Populated lazily on first use and
    // eagerly by every op that produces a cipher; always consistent with
    // `value` when attached. Mutating the cache through a shared body is
    // safe only under the batch APIs' pre-warm discipline
    // (rerandomize_batch warms serially before going parallel).
    mutable wide::Montgomery::Form form;
  };

  /// The body an op installs its result in: this cipher's own when no
  /// other cipher shares it, a fresh one otherwise. Never a clone — every
  /// caller overwrites both fields.
  PaillierBody& paillier_for_write() {
    if (paillier_ == nullptr || paillier_.use_count() > 1)
      paillier_ = std::make_shared<PaillierBody>();
    return *paillier_;
  }

  FieldVec fields_;          // plain backend: field values
  std::uint64_t salt_ = 0;   // plain backend: rerandomization witness
  std::shared_ptr<PaillierBody> paillier_;  // Paillier backend; null if plain
};

/// Serialize a cipher for the live wire (docs/LIVE.md "Frame format").
/// Layout: u8 backend tag (0 = plain, 1 = Paillier); plain ciphers as a
/// varint field count, varint fields, and the u64 salt; Paillier ciphers as
/// a varint limb count followed by little-endian u64 limbs.
void encode_cipher(util::ByteWriter& w, const Cipher& c);
/// Returns false on truncation, an unknown backend tag, or a limb count
/// that exceeds the remaining bytes. `*out` is untouched on failure.
bool decode_cipher(util::ByteReader& r, Cipher* out);

class Context;
using ContextPtr = std::shared_ptr<const Context>;

/// Accountant capability: create ciphers.
class EncryptKey {
 public:
  Cipher encrypt(std::span<const std::uint64_t> fields, Rng& rng) const;
  Cipher encrypt_value(std::uint64_t value, Rng& rng) const {
    return encrypt(std::span(&value, 1), rng);
  }

  /// Encrypt many plaintexts in one call, optionally spreading the modexps
  /// across executor lanes. Randomness discipline (shared by every batch
  /// API): one child Rng is split off `rng` per item, in index order, before
  /// any work is dispatched, so the parent's draw count is a pure function
  /// of the batch size. Every item's randomness comes from its own child:
  /// the plain backend's salt, and Paillier's blinding factor r_i^n, whose
  /// r_i is drawn from child i. Results are therefore bit-identical at any
  /// executor width.
  std::vector<Cipher> encrypt_batch(
      std::span<const std::vector<std::uint64_t>> items, Rng& rng,
      sim::Executor* executor = nullptr) const;

 private:
  friend class Context;
  explicit EncryptKey(ContextPtr ctx) : ctx_(std::move(ctx)) {}
  ContextPtr ctx_;
};

/// Broker capability: combine and refresh ciphers without reading them.
class EvalHandle {
 public:
  /// Enc of the field-wise sum. Fields must not overflow 64 bits (protocol
  /// invariant, see counter.hpp).
  Cipher add(const Cipher& a, const Cipher& b) const;

  /// In-place accumulate: `acc = add(acc, b)`, bit for bit (same fields,
  /// same salt derivation, same Paillier form math), but writing into acc
  /// (a Paillier acc reuses its body when no other cipher shares it).
  /// The aggregation folds in broker.cpp run O(degree) of these per rule
  /// per step, which made the out-of-place add the hot allocation site.
  void add_into(Cipher& acc, const Cipher& b) const;

  /// Enc of the field-wise difference; only meaningful for single-field
  /// ciphers whose value stays in (-2^63, 2^63) — packed multi-field
  /// subtraction would borrow across fields.
  Cipher sub_single(const Cipher& a, const Cipher& b) const;

  /// Enc of m times each field (m * x for the paper's `m ∔ E(x)`).
  Cipher scalar_mul(std::uint64_t m, const Cipher& a) const;

  /// Fresh cipher of the same plaintext — conceals from a receiver whether
  /// the value changed (paper §5.2).
  Cipher rerandomize(const Cipher& a, Rng& rng) const;

  /// In-place `c = rerandomize(c, rng)`, minus the copy (for a plain
  /// cipher, one salt write): the same draws from `rng` and the same
  /// result on either backend. Used on the outgoing-message path, where the
  /// cipher was just built and is never aliased.
  void rerandomize_into(Cipher& c, Rng& rng) const;

  /// Enc(0) with `n_fields` zero fields, usable as an aggregation seed.
  Cipher zero(std::size_t n_fields, Rng& rng) const;

  /// Rerandomize many ciphers in one call (split-per-item Rng discipline,
  /// see EncryptKey::encrypt_batch). Pointers may repeat — an attacking
  /// broker batches the same contribution twice (kDoubleCount) — and the
  /// lazily cached Montgomery forms are pre-warmed serially so the parallel
  /// section touches shared ciphers read-only.
  std::vector<Cipher> rerandomize_batch(std::span<const Cipher* const> items,
                                        Rng& rng,
                                        sim::Executor* executor = nullptr) const;

  /// Fused `rerandomize_batch` + left fold of `add`: the aggregate a broker
  /// builds every flush. Bit-identical to the two-call sequence — same Rng
  /// splits and draws, same salt chain, same op counters — but the plain
  /// backend computes the field sum and the salt fold directly, skipping
  /// the n intermediate ciphers the unfused path builds and immediately
  /// discards. Precondition: items is non-empty.
  Cipher aggregate_rerandomized(std::span<const Cipher* const> items, Rng& rng,
                                sim::Executor* executor = nullptr) const;

 private:
  friend class Context;
  explicit EvalHandle(ContextPtr ctx) : ctx_(std::move(ctx)) {}
  ContextPtr ctx_;
};

/// Controller capability: read ciphers.
class DecryptKey {
 public:
  std::vector<std::uint64_t> decrypt(const Cipher& c, std::size_t n_fields) const;
  std::uint64_t decrypt_value(const Cipher& c) const { return decrypt(c, 1)[0]; }
  /// Single-field signed read (two's-complement in the field for the plain
  /// backend, mod-n complement for Paillier).
  std::int64_t decrypt_signed(const Cipher& c) const;

  /// Decrypt many ciphers (each into `n_fields` fields) in one call,
  /// optionally spreading the CRT exponentiations across executor lanes.
  /// Decryption draws no randomness and never mutates the cipher, so the
  /// result is position-wise identical to a serial loop for any executor.
  std::vector<std::vector<std::uint64_t>> decrypt_batch(
      std::span<const Cipher* const> items, std::size_t n_fields,
      sim::Executor* executor = nullptr) const;

  /// True when this key's context runs the plain backend, where decryption
  /// is a field read rather than a CRT exponentiation.
  bool is_plain() const;

  /// Plain backend only: zero-copy view of the decrypted fields (the
  /// cipher's field vector; callers zero-extend short reads themselves).
  /// Counts as a decryption in the obs counters exactly like decrypt(). The
  /// span aliases the cipher — valid until the cipher is mutated, moved or
  /// destroyed.
  std::span<const std::uint64_t> plain_fields(const Cipher& c) const;

 private:
  friend class Context;
  explicit DecryptKey(ContextPtr ctx) : ctx_(std::move(ctx)) {}
  ContextPtr ctx_;
};

/// Immutable per-grid crypto context. One keypair is shared by all
/// accountants (encryption side) and all controllers (decryption side),
/// matching the paper's "encryption key shared by the accountants".
class Context : public std::enable_shared_from_this<Context> {
 public:
  static ContextPtr make_plain();
  static ContextPtr make_paillier(std::size_t n_bits, Rng& rng);

  Backend backend() const { return backend_; }

  /// Maximum number of 64-bit fields a single cipher can pack (unbounded for
  /// the plain backend).
  std::size_t max_fields() const;

  EncryptKey encrypt_key() const { return EncryptKey(shared_from_this()); }
  EvalHandle eval_handle() const { return EvalHandle(shared_from_this()); }
  DecryptKey decrypt_key() const { return DecryptKey(shared_from_this()); }

 private:
  friend class EncryptKey;
  friend class EvalHandle;
  friend class DecryptKey;

  Context() = default;

  Backend backend_ = Backend::kPlain;
  PaillierPrivateKey key_;  // unset for the plain backend
};

}  // namespace kgrid::hom
