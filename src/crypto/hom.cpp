#include "crypto/hom.hpp"

#include <algorithm>

#include "crypto/packing.hpp"
#include "obs/crypto_counters.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"

namespace kgrid::hom {

using wide::BigInt;
using Form = wide::Montgomery::Form;

namespace {

/// Items per batch-kernel call on the Paillier paths: one AVX-512 IFMA
/// lane-group, and a multiple of the AVX2 (4) and NEON (2) lane counts —
/// executor threads parallelize across chunks while SIMD lanes fill within
/// one. Chunking is fixed (not thread-count-dependent) so the work
/// decomposition, and with it every plaintext, is identical at any thread
/// count.
constexpr std::size_t kBatchChunk = 8;

/// Shared batch driver: spread the indices across executor lanes when a
/// multi-lane executor was supplied, plain index-order loop otherwise. The
/// per-index work must be order-independent (the batch APIs guarantee that
/// by pre-splitting Rngs and writing disjoint output slots).
template <class Fn>
void batch_for(sim::Executor* executor, std::size_t n, const Fn& fn) {
  if (executor != nullptr && executor->threads() > 1 && n >= 2) {
    executor->parallel_for(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

/// One child Rng per item, split off in index order before any dispatch, so
/// the parent's draw count and every child stream are thread-count-invariant.
/// Item i's plain salt or Paillier blinding factor r_i^n is drawn from child
/// i alone, which makes every batch result independent of the executor.
std::vector<Rng> split_per_item(Rng& rng, std::size_t n) {
  std::vector<Rng> rngs;
  rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rngs.push_back(rng.split());
  return rngs;
}

}  // namespace

/// The cipher's Montgomery-form view, converting (and caching) on first use.
/// Chains of homomorphic ops therefore pay the to-form conversion once per
/// cipher lineage, not once per op.
const wide::Montgomery::Form& cipher_form(const Cipher& c,
                                          const PaillierPublicKey& pk) {
  const Cipher::PaillierBody& b = *c.paillier_;
  if (!b.form.attached()) b.form = pk.to_form(b.value);
  return b.form;
}

/// Install an op result: keep the form for the next chained op and
/// materialize the canonical BigInt eagerly — decryption, serialization, and
/// operator== all read `value`, so the two views must never diverge.
void set_cipher_form(Cipher& c, wide::Montgomery::Form f,
                     const PaillierPublicKey& pk) {
  Cipher::PaillierBody& b = c.paillier_for_write();
  b.value = pk.from_form(f);
  b.form = std::move(f);
}

/// Batch-path variant of set_cipher_form: the canonical value was already
/// materialized by a from_form_batch over the whole chunk, so install both
/// views without a per-item conversion.
void set_cipher_form_value(Cipher& c, wide::Montgomery::Form f,
                           wide::BigInt value) {
  Cipher::PaillierBody& b = c.paillier_for_write();
  b.value = std::move(value);
  b.form = std::move(f);
}

void encode_cipher(util::ByteWriter& w, const Cipher& c) {
  if (c.paillier_ == nullptr) {
    w.u8(0);
    w.varint(c.fields_.size());
    for (const std::uint64_t field : c.fields_) w.varint(field);
    w.u64(c.salt_);
  } else {
    const BigInt& v = c.paillier_->value;
    w.u8(1);
    w.varint(v.limb_count());
    for (std::size_t i = 0; i < v.limb_count(); ++i) w.u64(v.limb(i));
  }
}

bool decode_cipher(util::ByteReader& r, Cipher* out) {
  const std::uint8_t tag = r.u8();
  if (!r.ok() || tag > 1) return false;
  Cipher c;
  if (tag == 0) {
    const std::uint64_t n = r.varint();
    if (!r.ok() || n > r.remaining()) return false;
    c.fields_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) c.fields_.push_back(r.varint());
    c.salt_ = r.u64();
  } else {
    const std::uint64_t n = r.varint();
    // Each limb is a fixed 8-byte word, so the count bounds-checks exactly.
    if (!r.ok() || n > r.remaining() / 8) return false;
    std::vector<BigInt::Limb> limbs(n);
    for (std::uint64_t i = 0; i < n; ++i) limbs[i] = r.u64();
    c.paillier_for_write().value =
        BigInt::from_limb_span(limbs.data(), limbs.size());
  }
  if (!r.ok()) return false;
  *out = std::move(c);
  return true;
}

ContextPtr Context::make_plain() {
  auto ctx = std::shared_ptr<Context>(new Context());
  ctx->backend_ = Backend::kPlain;
  return ctx;
}

ContextPtr Context::make_paillier(std::size_t n_bits, Rng& rng) {
  auto ctx = std::shared_ptr<Context>(new Context());
  ctx->backend_ = Backend::kPaillier;
  ctx->key_ = paillier_keygen(n_bits, rng);
  return ctx;
}

std::size_t Context::max_fields() const {
  if (backend_ == Backend::kPlain) return static_cast<std::size_t>(-1);
  // Leave one guard bit below n so packed sums cannot wrap mod n.
  return (key_.pub.plaintext_bits() - 1) / 64;
}

Cipher EncryptKey::encrypt(std::span<const std::uint64_t> fields, Rng& rng) const {
  obs::crypto_counters().hom_encrypts.inc();
  Cipher c;
  if (ctx_->backend() == Backend::kPlain) {
    c.fields_.assign(fields.begin(), fields.end());
    c.salt_ = rng();
    return c;
  }
  KGRID_CHECK(fields.size() <= ctx_->max_fields(),
              "packed plaintext exceeds Paillier capacity");
  set_cipher_form(c, ctx_->key_.pub.encrypt_form(pack_fields(fields), rng),
                  ctx_->key_.pub);
  return c;
}

std::vector<Cipher> EncryptKey::encrypt_batch(
    std::span<const std::vector<std::uint64_t>> items, Rng& rng,
    sim::Executor* executor) const {
  std::vector<Cipher> out(items.size());
  const bool parallel =
      executor != nullptr && executor->threads() > 1 && items.size() >= 2;
  if (ctx_->backend() == Backend::kPlain && !parallel) {
    // Serial fast path: fuse split-and-use per item instead of materializing
    // a vector<Rng>. Children split in index order are independent of the
    // parent afterward, so the streams (and every salt) are bit-identical to
    // the pre-split layout batch_for sees on the parallel path.
    for (std::size_t i = 0; i < items.size(); ++i) {
      Rng child = rng.split();
      out[i] = encrypt(items[i], child);
    }
    return out;
  }
  std::vector<Rng> rngs = split_per_item(rng, items.size());
  if (ctx_->backend() == Backend::kPlain) {
    batch_for(executor, items.size(),
              [&](std::size_t i) { out[i] = encrypt(items[i], rngs[i]); });
    return out;
  }
  // Paillier: pack every plaintext up front, then push chunks through the
  // interleaved batch kernels (encrypt_form_batch + one from_form_batch for
  // the canonical values).
  const std::size_t n = items.size();
  const PaillierPublicKey& pk = ctx_->key_.pub;
  obs::crypto_counters().hom_encrypts.inc(n);
  std::vector<BigInt> ms(n);
  for (std::size_t i = 0; i < n; ++i) {
    KGRID_CHECK(items[i].size() <= ctx_->max_fields(),
                "packed plaintext exceeds Paillier capacity");
    ms[i] = pack_fields(items[i]);
  }
  const std::size_t chunks = (n + kBatchChunk - 1) / kBatchChunk;
  batch_for(executor, chunks, [&](std::size_t ci) {
    const std::size_t lo = ci * kBatchChunk;
    const std::size_t len = std::min(kBatchChunk, n - lo);
    std::vector<Form> forms = pk.encrypt_form_batch(
        std::span(ms).subspan(lo, len), std::span(rngs).subspan(lo, len));
    std::vector<BigInt> values = pk.mont_n2->from_form_batch(forms);
    for (std::size_t i = 0; i < len; ++i)
      set_cipher_form_value(out[lo + i], std::move(forms[i]),
                            std::move(values[i]));
  });
  return out;
}

Cipher EvalHandle::add(const Cipher& a, const Cipher& b) const {
  KGRID_CHECK(a.backend() == ctx_->backend() && b.backend() == ctx_->backend(),
              "cipher backend mismatch");
  obs::crypto_counters().hom_adds.inc();
  Cipher c;
  if (ctx_->backend() == Backend::kPlain) {
    const FieldVec& ap = a.fields_;
    const FieldVec& bp = b.fields_;
    c.fields_.resize(std::max(ap.size(), bp.size()));
    for (std::size_t i = 0; i < c.fields_.size(); ++i) {
      const std::uint64_t x = i < ap.size() ? ap[i] : 0;
      const std::uint64_t y = i < bp.size() ? bp[i] : 0;
      c.fields_[i] = x + y;  // fields may wrap mod 2^64 exactly like a packed
                             // Paillier field would carry; protocol
                             // invariants keep real fields far from the
                             // boundary
    }
    c.salt_ = a.salt_ ^ (b.salt_ << 1) ^ 0x9e3779b97f4a7c15ull;
    return c;
  }
  const PaillierPublicKey& pk = ctx_->key_.pub;
  set_cipher_form(c, pk.add_form(cipher_form(a, pk), cipher_form(b, pk)), pk);
  return c;
}

void EvalHandle::add_into(Cipher& acc, const Cipher& b) const {
  KGRID_CHECK(
      acc.backend() == ctx_->backend() && b.backend() == ctx_->backend(),
      "cipher backend mismatch");
  obs::crypto_counters().hom_adds.inc();
  if (ctx_->backend() == Backend::kPlain) {
    // acc and b may be the same object (an `x = x + x` style fold); the
    // field loop is element-wise and the salt reads precede the write.
    FieldVec& af = acc.fields_;
    const FieldVec& bp = b.fields_;
    if (bp.size() > af.size()) af.resize(bp.size());
    // FieldVec::resize zero-fills growth, so fields past acc's old size
    // start at 0 — identical to add()'s out-of-line zero-extension.
    for (std::size_t i = 0; i < bp.size(); ++i) af[i] += bp[i];
    acc.salt_ = acc.salt_ ^ (b.salt_ << 1) ^ 0x9e3779b97f4a7c15ull;
    return;
  }
  const PaillierPublicKey& pk = ctx_->key_.pub;
  set_cipher_form(acc, pk.add_form(cipher_form(acc, pk), cipher_form(b, pk)),
                  pk);
}

Cipher EvalHandle::sub_single(const Cipher& a, const Cipher& b) const {
  KGRID_CHECK(a.backend() == ctx_->backend() && b.backend() == ctx_->backend(),
              "cipher backend mismatch");
  obs::crypto_counters().hom_adds.inc();
  Cipher c;
  if (ctx_->backend() == Backend::kPlain) {
    const FieldVec& ap = a.fields_;
    const FieldVec& bp = b.fields_;
    KGRID_CHECK(ap.size() <= 1 && bp.size() <= 1,
                "sub_single on multi-field cipher");
    const std::uint64_t x = ap.empty() ? 0 : ap[0];
    const std::uint64_t y = bp.empty() ? 0 : bp[0];
    c.fields_.assign(1, x - y);
    c.salt_ = a.salt_ ^ (b.salt_ >> 1) ^ 0xbf58476d1ce4e5b9ull;
    return c;
  }
  const PaillierPublicKey& pk = ctx_->key_.pub;
  set_cipher_form(c, pk.sub_form(cipher_form(a, pk), cipher_form(b, pk)), pk);
  return c;
}

Cipher EvalHandle::scalar_mul(std::uint64_t m, const Cipher& a) const {
  KGRID_CHECK(a.backend() == ctx_->backend(), "cipher backend mismatch");
  obs::crypto_counters().hom_scalar_muls.inc();
  Cipher c;
  if (ctx_->backend() == Backend::kPlain) {
    c.fields_ = a.fields_;
    for (auto& f : c.fields_) f *= m;
    c.salt_ = a.salt_ * 0x94d049bb133111ebull + m;
    return c;
  }
  const PaillierPublicKey& pk = ctx_->key_.pub;
  set_cipher_form(c, pk.scalar_mul_form(BigInt(m), cipher_form(a, pk)), pk);
  return c;
}

Cipher EvalHandle::rerandomize(const Cipher& a, Rng& rng) const {
  KGRID_CHECK(a.backend() == ctx_->backend(), "cipher backend mismatch");
  obs::crypto_counters().hom_rerandomizes.inc();
  Cipher c;
  if (ctx_->backend() == Backend::kPlain) {
    c.fields_ = a.fields_;
    c.salt_ = rng();
    return c;
  }
  const PaillierPublicKey& pk = ctx_->key_.pub;
  set_cipher_form(c, pk.rerandomize_form(cipher_form(a, pk), rng), pk);
  return c;
}

std::vector<Cipher> EvalHandle::rerandomize_batch(
    std::span<const Cipher* const> items, Rng& rng,
    sim::Executor* executor) const {
  std::vector<Cipher> out(items.size());
  const bool parallel =
      executor != nullptr && executor->threads() > 1 && items.size() >= 2;
  if (ctx_->backend() == Backend::kPlain && !parallel) {
    // Same fused split-and-use as encrypt_batch: stream-identical to the
    // pre-split layout, minus one vector<Rng> per protocol round.
    for (std::size_t i = 0; i < items.size(); ++i) {
      Rng child = rng.split();
      out[i] = rerandomize(*items[i], child);
    }
    return out;
  }
  std::vector<Rng> rngs = split_per_item(rng, items.size());
  if (ctx_->backend() == Backend::kPlain) {
    batch_for(executor, items.size(),
              [&](std::size_t i) { out[i] = rerandomize(*items[i], rngs[i]); });
    return out;
  }
  // Warm the lazy Montgomery-form caches before going parallel: the batch
  // may list the same cipher more than once (a double-counting broker
  // does), and cipher_form's first-use population is not synchronized.
  const PaillierPublicKey& pk = ctx_->key_.pub;
  for (const Cipher* c : items) cipher_form(*c, pk);
  const std::size_t n = items.size();
  obs::crypto_counters().hom_rerandomizes.inc(n);
  const std::size_t chunks = (n + kBatchChunk - 1) / kBatchChunk;
  batch_for(executor, chunks, [&](std::size_t ci) {
    const std::size_t lo = ci * kBatchChunk;
    const std::size_t len = std::min(kBatchChunk, n - lo);
    std::vector<Form> cas(len);
    for (std::size_t i = 0; i < len; ++i)
      cas[i] = cipher_form(*items[lo + i], pk);
    std::vector<Form> forms =
        pk.rerandomize_form_batch(cas, std::span(rngs).subspan(lo, len));
    std::vector<BigInt> values = pk.mont_n2->from_form_batch(forms);
    for (std::size_t i = 0; i < len; ++i)
      set_cipher_form_value(out[lo + i], std::move(forms[i]),
                            std::move(values[i]));
  });
  return out;
}

void EvalHandle::rerandomize_into(Cipher& c, Rng& rng) const {
  KGRID_CHECK(c.backend() == ctx_->backend(), "cipher backend mismatch");
  obs::crypto_counters().hom_rerandomizes.inc();
  if (ctx_->backend() == Backend::kPlain) {
    c.salt_ = rng();
    return;
  }
  const PaillierPublicKey& pk = ctx_->key_.pub;
  set_cipher_form(c, pk.rerandomize_form(cipher_form(c, pk), rng), pk);
}

Cipher EvalHandle::aggregate_rerandomized(
    std::span<const Cipher* const> items, Rng& rng,
    sim::Executor* executor) const {
  KGRID_CHECK(!items.empty(), "aggregate of an empty contribution list");
  if (ctx_->backend() == Backend::kPlain) {
    // Fused path. Randomness: one child per item, split in index order,
    // each drawn once — the exact stream rerandomize_batch produces. Salt:
    // the add() fold formula applied left to right over the fresh salts.
    // Fields: the zero-extended wrapping sum, which the fold also computes.
    obs::crypto_counters().hom_rerandomizes.inc(items.size());
    obs::crypto_counters().hom_adds.inc(items.size() - 1);
    Cipher c;
    std::size_t n_fields = 0;
    for (const Cipher* p : items) {
      KGRID_CHECK(p->backend() == Backend::kPlain, "cipher backend mismatch");
      n_fields = std::max(n_fields, p->fields_.size());
    }
    c.fields_.resize(n_fields);
    for (const Cipher* p : items) {
      const FieldVec& ap = p->fields_;
      for (std::size_t i = 0; i < ap.size(); ++i) c.fields_[i] += ap[i];
    }
    std::uint64_t salt = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      Rng child = rng.split();
      const std::uint64_t fresh = child();
      salt = i == 0 ? fresh
                    : (salt ^ (fresh << 1) ^ 0x9e3779b97f4a7c15ull);
    }
    c.salt_ = salt;
    return c;
  }
  std::vector<Cipher> fresh = rerandomize_batch(items, rng, executor);
  Cipher agg = std::move(fresh[0]);
  for (std::size_t i = 1; i < fresh.size(); ++i) add_into(agg, fresh[i]);
  return agg;
}

Cipher EvalHandle::zero(std::size_t n_fields, Rng& rng) const {
  obs::crypto_counters().hom_encrypts.inc();
  Cipher c;
  if (ctx_->backend() == Backend::kPlain) {
    c.fields_.assign(n_fields, 0);
    c.salt_ = rng();
    return c;
  }
  // Enc(0) is constructible from public material alone (1 * r^n); this does
  // not let an evaluator forge arbitrary values.
  const PaillierPublicKey& pk = ctx_->key_.pub;
  set_cipher_form(c, pk.rerandomize_form(pk.mont_n2->one_form(), rng), pk);
  return c;
}

bool DecryptKey::is_plain() const { return ctx_->backend() == Backend::kPlain; }

std::span<const std::uint64_t> DecryptKey::plain_fields(
    const Cipher& c) const {
  KGRID_CHECK(ctx_->backend() == Backend::kPlain,
              "plain_fields needs the plain backend");
  KGRID_CHECK(c.backend() == Backend::kPlain, "cipher backend mismatch");
  obs::crypto_counters().hom_decrypts.inc();
  return {c.fields_.data(), c.fields_.size()};
}

std::vector<std::uint64_t> DecryptKey::decrypt(const Cipher& c,
                                               std::size_t n_fields) const {
  KGRID_CHECK(c.backend() == ctx_->backend(), "cipher backend mismatch");
  obs::crypto_counters().hom_decrypts.inc();
  if (ctx_->backend() == Backend::kPlain) {
    std::vector<std::uint64_t> out(c.fields_.begin(), c.fields_.end());
    out.resize(n_fields, 0);
    return out;
  }
  return unpack_fields(ctx_->key_.decrypt(c.paillier_->value), n_fields);
}

std::vector<std::vector<std::uint64_t>> DecryptKey::decrypt_batch(
    std::span<const Cipher* const> items, std::size_t n_fields,
    sim::Executor* executor) const {
  std::vector<std::vector<std::uint64_t>> out(items.size());
  if (ctx_->backend() == Backend::kPlain) {
    batch_for(executor, items.size(),
              [&](std::size_t i) { out[i] = decrypt(*items[i], n_fields); });
    return out;
  }
  const std::size_t n = items.size();
  obs::crypto_counters().hom_decrypts.inc(n);
  const std::size_t chunks = (n + kBatchChunk - 1) / kBatchChunk;
  batch_for(executor, chunks, [&](std::size_t ci) {
    const std::size_t lo = ci * kBatchChunk;
    const std::size_t len = std::min(kBatchChunk, n - lo);
    std::vector<BigInt> cs(len);
    for (std::size_t i = 0; i < len; ++i) {
      KGRID_CHECK(items[lo + i]->backend() == ctx_->backend(),
                  "cipher backend mismatch");
      cs[i] = items[lo + i]->paillier_->value;
    }
    const std::vector<BigInt> ms = ctx_->key_.decrypt_batch(cs);
    for (std::size_t i = 0; i < len; ++i)
      out[lo + i] = unpack_fields(ms[i], n_fields);
  });
  return out;
}

std::int64_t DecryptKey::decrypt_signed(const Cipher& c) const {
  KGRID_CHECK(c.backend() == ctx_->backend(), "cipher backend mismatch");
  obs::crypto_counters().hom_decrypts.inc();
  if (ctx_->backend() == Backend::kPlain) {
    const std::uint64_t v = c.fields_.empty() ? 0 : c.fields_[0];
    return static_cast<std::int64_t>(v);
  }
  return ctx_->key_.decrypt_signed(c.paillier_->value).to_i64();
}

}  // namespace kgrid::hom
