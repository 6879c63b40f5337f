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

/// Field storage for plain-backend cipher bodies: a small-buffer vector of
/// packed 64-bit fields. Counter layouts are a handful of fields (one per
/// tree neighbor plus spares), so the common case lives inline in the Body
/// allocation and a plain-backend homomorphic op allocates nothing beyond
/// the body itself; high-degree hub layouts spill to the heap. API is the
/// std::vector subset the hom layer uses — value semantics included, since
/// Body copies (COW clones) must deep-copy the fields.
class FieldVec {
 public:
  // Sized for protocol counters: n_fields = 4 + degree + 1, and spanning
  // trees keep most degrees <= 3, so typical counter plaintexts stay inline.
  static constexpr std::size_t kInline = 8;

  FieldVec() = default;
  FieldVec(const FieldVec& o) { assign(o.begin(), o.end()); }
  FieldVec(FieldVec&& o) noexcept { *this = std::move(o); }
  FieldVec& operator=(const FieldVec& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  FieldVec& operator=(FieldVec&& o) noexcept {
    if (this == &o) return *this;
    release();
    if (o.heap_ != nullptr) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      o.heap_ = nullptr;
      o.cap_ = kInline;
    } else {
      for (std::size_t i = 0; i < o.size_; ++i) inline_[i] = o.inline_[i];
    }
    size_ = o.size_;
    o.size_ = 0;
    return *this;
  }
  ~FieldVec() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t* data() { return heap_ != nullptr ? heap_ : inline_; }
  const std::uint64_t* data() const {
    return heap_ != nullptr ? heap_ : inline_;
  }
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
    if (size_ == cap_) grow(size_ * 2);
    data()[size_++] = v;
  }

  /// Grow-only resize semantics plus shrink, zero-filling new fields (the
  /// only fill value the hom ops use).
  void resize(std::size_t n) {
    reserve(n);
    std::uint64_t* d = data();
    for (std::size_t i = size_; i < n; ++i) d[i] = 0;
    size_ = n;
  }

  void assign(std::size_t n, std::uint64_t v) {
    reserve(n);
    std::uint64_t* d = data();
    for (std::size_t i = 0; i < n; ++i) d[i] = v;
    size_ = n;
  }

  template <class It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(last - first);
    reserve(n);
    std::uint64_t* d = data();
    for (std::size_t i = 0; i < n; ++i) d[i] = static_cast<std::uint64_t>(first[i]);
    size_ = n;
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
  void grow(std::size_t want) {
    const std::size_t ncap = want < 2 * cap_ ? 2 * cap_ : want;
    auto* nd = new std::uint64_t[ncap];
    const std::uint64_t* d = data();
    for (std::size_t i = 0; i < size_; ++i) nd[i] = d[i];
    release();
    heap_ = nd;
    cap_ = ncap;
  }
  void release() {
    delete[] heap_;
    heap_ = nullptr;
    cap_ = kInline;
  }

  std::uint64_t inline_[kInline] = {};
  std::uint64_t* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = kInline;
};

namespace detail {

/// Allocator recycling fixed-size blocks through a thread-local free list.
/// Cipher bodies (their shared_ptr control blocks, via allocate_shared) are
/// created and destroyed millions of times per fig3-scale run — every
/// encrypt, COW clone, and aggregate mints one — and the general-purpose
/// allocator is a measurable slice of the wall time. Each thread keeps its
/// own list, so no locking; a block freed on a different thread than it was
/// allocated on simply migrates between pools. Lists are bounded and drain
/// their blocks at thread exit.
template <class T>
class BlockPoolAlloc {
 public:
  using value_type = T;

  BlockPoolAlloc() = default;
  template <class U>
  BlockPoolAlloc(const BlockPoolAlloc<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 1) {
      auto& free = pool().free;
      if (!free.empty()) {
        T* p = static_cast<T*>(free.back());
        free.pop_back();
        return p;
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      auto& free = pool().free;
      if (free.size() < kMaxFree) {
        free.push_back(p);
        return;
      }
    }
    ::operator delete(p);
  }

  template <class U>
  bool operator==(const BlockPoolAlloc<U>&) const noexcept {
    return true;
  }

 private:
  // Bound chosen to cover a shard's in-flight ciphers between drains while
  // capping idle-thread retention at ~kMaxFree * sizeof(Body) per thread.
  static constexpr std::size_t kMaxFree = 4096;

  struct Pool {
    std::vector<void*> free;
    ~Pool() {
      for (void* p : free) ::operator delete(p);
    }
  };

  static Pool& pool() {
    static thread_local Pool tl;
    return tl;
  }
};

}  // namespace detail

/// An opaque additively-homomorphic ciphertext over packed 64-bit fields.
///
/// The representation is copy-on-write: a Cipher is one shared_ptr to an
/// immutable-once-shared body, so copying — a resource forwarding the same
/// SecureRuleMessage to every neighbor, a broker storing the received
/// counter per edge — is a refcount bump instead of a deep copy of a
/// 2048-bit integer. Only the homomorphic ops (hom.cpp) write bodies, and
/// they clone first when the body is shared (`own`), so aliases never
/// observe a value change. Sharing is an implementation detail: two ciphers
/// compare by content, never by identity.
class Cipher {
 public:
  Cipher() = default;

  Backend backend() const { return body().backend; }
  bool empty() const {
    return body().backend == Backend::kPlain && body().plain.empty();
  }

  /// Ciphertext equality. Distinct encryptions/rerandomizations of the same
  /// plaintext compare unequal (probabilistic encryption), which tests rely
  /// on to assert that brokers cannot detect unchanged counters. The
  /// Montgomery-form cache is deliberately excluded: it is a redundant
  /// representation of `paillier`, present or absent depending on the op
  /// history.
  friend bool operator==(const Cipher& a, const Cipher& b) {
    if (a.body_ == b.body_) return true;  // COW aliases (and empty == empty)
    const Body& x = a.body();
    const Body& y = b.body();
    return x.backend == y.backend && x.plain == y.plain && x.salt == y.salt &&
           x.paillier == y.paillier;
  }
  friend bool operator!=(const Cipher& a, const Cipher& b) { return !(a == b); }

  /// Force a private copy of the body — the value semantics every Cipher
  /// had before copy-on-write. Callers that need copy isolation (the
  /// sharded engine's cross-lane mailboxes) use this; everything else
  /// shares bodies freely.
  void detach() {
    if (body_ != nullptr && body_.use_count() > 1)
      body_ = std::allocate_shared<Body>(detail::BlockPoolAlloc<Body>{}, *body_);
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
  // representation of `paillier` and is rebuilt lazily on first use, so a
  // decoded cipher is functionally identical to the encoded one.
  friend void encode_cipher(util::ByteWriter& w, const Cipher& c);
  friend bool decode_cipher(util::ByteReader& r, Cipher* out);

  struct Body {
    Backend backend = Backend::kPlain;
    FieldVec plain;          // plain backend: field values (inline small-buf)
    std::uint64_t salt = 0;  // plain backend: rerandomization witness
    wide::BigInt paillier;             // paillier backend: cipher mod n^2
    // Cache of `paillier` in Montgomery form over n^2, so chained
    // homomorphic ops skip the per-op R-conversions. Populated lazily on
    // first use and eagerly by every op that produces a Paillier cipher;
    // always consistent with `paillier` when attached. Mutating the cache
    // through a shared body is safe only under the batch APIs' pre-warm
    // discipline (rerandomize_batch warms serially before going parallel).
    mutable wide::Montgomery::Form paillier_form;
  };

  /// Read view; a default-constructed Cipher reads as the empty plain body.
  const Body& body() const {
    static const Body kEmpty;
    return body_ == nullptr ? kEmpty : *body_;
  }

  /// Write view: materialize an owned body, cloning if currently shared.
  Body& own() {
    if (body_ == nullptr)
      body_ = std::allocate_shared<Body>(detail::BlockPoolAlloc<Body>{});
    else if (body_.use_count() > 1)
      body_ = std::allocate_shared<Body>(detail::BlockPoolAlloc<Body>{}, *body_);
    return *body_;
  }

  std::shared_ptr<Body> body_;
};

/// Serialize a cipher for the live wire (docs/LIVE.md "Frame format").
/// Layout: u8 backend tag (0 = plain, 1 = Paillier); plain bodies as a
/// varint field count, varint fields, and the u64 salt; Paillier bodies as
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
  /// any work is dispatched — the parent draw count and every child stream
  /// are pure functions of the batch contents, independent of thread count.
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
  /// same salt derivation, same Paillier form math), but mutating acc's
  /// body instead of allocating a fresh one when acc is uniquely owned.
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

  /// In-place `c = rerandomize(c, rng)` — same randomness draws and result,
  /// minus the copy-on-write clone when c is uniquely owned. Used on the
  /// outgoing-message path, where the cipher was just built and is never
  /// aliased.
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
  /// the n intermediate cipher bodies the unfused path allocates and
  /// immediately discards. Precondition: items is non-empty.
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

  /// Plain backend only: zero-copy view of the decrypted fields (the body's
  /// field vector; callers zero-extend short reads themselves). Counts as a
  /// decryption in the obs counters exactly like decrypt(). The span aliases
  /// the cipher body — valid until the cipher is mutated or destroyed.
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

  /// Pre-generate `count` r^n randomizer factors into the key's pool
  /// (randomizer_pool.hpp) — the idle-cycle precompute a deployment runs
  /// between protocol rounds. No-op for the plain backend.
  void prefill_randomizers(std::size_t count) const;

 private:
  friend class EncryptKey;
  friend class EvalHandle;
  friend class DecryptKey;

  Context() = default;

  Backend backend_ = Backend::kPlain;
  PaillierPrivateKey key_;  // unset for the plain backend
};

}  // namespace kgrid::hom
