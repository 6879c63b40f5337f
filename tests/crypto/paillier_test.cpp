#include "crypto/paillier.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "wide/fixword/fixword.hpp"
#include "wide/prime.hpp"

namespace kgrid::hom {
namespace {

using wide::BigInt;

class PaillierTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  PaillierTest() : rng_(GetParam() * 7919 + 1), key_(paillier_keygen(GetParam(), rng_)) {}

  Rng rng_;
  PaillierPrivateKey key_;
};

TEST_P(PaillierTest, KeyShape) {
  EXPECT_GE(key_.pub.n.bit_length(), GetParam() - 2);
  EXPECT_LE(key_.pub.n.bit_length(), GetParam());
  EXPECT_EQ(key_.pub.n2, key_.pub.n * key_.pub.n);
  EXPECT_EQ(wide::gcd(key_.pub.n, key_.lambda).to_dec(), "1");
}

TEST_P(PaillierTest, EncryptDecryptRoundTrip) {
  for (std::uint64_t m : {0ull, 1ull, 2ull, 1234567ull, 0xFFFFFFFFull}) {
    const BigInt c = key_.pub.encrypt(BigInt(m), rng_);
    EXPECT_EQ(key_.decrypt(c).to_u64(), m);
  }
}

TEST_P(PaillierTest, RandomPlaintextRoundTrip) {
  for (int i = 0; i < 10; ++i) {
    const BigInt m = BigInt::random_below(rng_, key_.pub.n);
    EXPECT_EQ(key_.decrypt(key_.pub.encrypt(m, rng_)), m);
  }
}

TEST_P(PaillierTest, ProbabilisticEncryption) {
  const BigInt c1 = key_.pub.encrypt(BigInt(42), rng_);
  const BigInt c2 = key_.pub.encrypt(BigInt(42), rng_);
  EXPECT_NE(c1, c2);
  EXPECT_EQ(key_.decrypt(c1), key_.decrypt(c2));
}

TEST_P(PaillierTest, AdditiveHomomorphism) {
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t a = rng_.below(1u << 30);
    const std::uint64_t b = rng_.below(1u << 30);
    const BigInt ca = key_.pub.encrypt(BigInt(a), rng_);
    const BigInt cb = key_.pub.encrypt(BigInt(b), rng_);
    EXPECT_EQ(key_.decrypt(key_.pub.add(ca, cb)).to_u64(), a + b);
  }
}

TEST_P(PaillierTest, SubtractionHomomorphism) {
  const BigInt ca = key_.pub.encrypt(BigInt(100), rng_);
  const BigInt cb = key_.pub.encrypt(BigInt(58), rng_);
  EXPECT_EQ(key_.decrypt(key_.pub.sub(ca, cb)).to_u64(), 42u);
  // Negative result wraps mod n; signed decryption recovers it.
  EXPECT_EQ(key_.decrypt_signed(key_.pub.sub(cb, ca)).to_i64(), -42);
}

TEST_P(PaillierTest, ScalarMultiplication) {
  const BigInt c = key_.pub.encrypt(BigInt(7), rng_);
  EXPECT_EQ(key_.decrypt(key_.pub.scalar_mul(BigInt(6), c)).to_u64(), 42u);
  EXPECT_EQ(key_.decrypt(key_.pub.scalar_mul(BigInt(0), c)).to_u64(), 0u);
  EXPECT_EQ(key_.decrypt(key_.pub.scalar_mul(BigInt(1), c)), BigInt(7));
}

TEST_P(PaillierTest, RerandomizePreservesPlaintext) {
  const BigInt c = key_.pub.encrypt(BigInt(99), rng_);
  const BigInt c2 = key_.pub.rerandomize(c, rng_);
  EXPECT_NE(c, c2);
  EXPECT_EQ(key_.decrypt(c2).to_u64(), 99u);
}

TEST_P(PaillierTest, IteratedAdditionMatchesScalar) {
  // The paper derives E(m·x) by iterating A+; check both routes agree.
  const BigInt c = key_.pub.encrypt(BigInt(5), rng_);
  BigInt acc = c;
  for (int i = 1; i < 9; ++i) acc = key_.pub.add(acc, c);
  EXPECT_EQ(key_.decrypt(acc), key_.decrypt(key_.pub.scalar_mul(BigInt(9), c)));
}

TEST_P(PaillierTest, SignedEncryptNegative) {
  const BigInt c = paillier_encrypt_signed(key_.pub, BigInt(-123), rng_);
  EXPECT_EQ(key_.decrypt_signed(c).to_i64(), -123);
  const BigInt c2 = key_.pub.add(c, key_.pub.encrypt(BigInt(200), rng_));
  EXPECT_EQ(key_.decrypt_signed(c2).to_i64(), 77);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, PaillierTest,
                         ::testing::Values(std::size_t{128}, std::size_t{256},
                                           std::size_t{512}),
                         [](const auto& tpi) {
                           return "n" + std::to_string(tpi.param);
                         });

TEST_P(PaillierTest, CrtDecryptionMatchesReference) {
  for (int i = 0; i < 20; ++i) {
    const BigInt m = BigInt::random_below(rng_, key_.pub.n);
    const BigInt c = key_.pub.encrypt(m, rng_);
    EXPECT_EQ(key_.decrypt(c), key_.decrypt_no_crt(c));
    EXPECT_EQ(key_.decrypt(c), m);
  }
}

TEST_P(PaillierTest, CrtDecryptionOnHomomorphicResults) {
  const BigInt a = key_.pub.encrypt(BigInt(1234567), rng_);
  const BigInt b = key_.pub.encrypt(BigInt(7654321), rng_);
  const BigInt sum = key_.pub.add(a, b);
  EXPECT_EQ(key_.decrypt(sum), key_.decrypt_no_crt(sum));
  EXPECT_EQ(key_.decrypt(sum).to_u64(), 1234567u + 7654321u);
  const BigInt neg = key_.pub.sub(a, b);
  EXPECT_EQ(key_.decrypt(neg), key_.decrypt_no_crt(neg));
  EXPECT_EQ(key_.decrypt_signed(neg).to_i64(), 1234567 - 7654321);
}

TEST(PaillierKeygen, DistinctKeysFromDistinctSeeds) {
  Rng r1(1), r2(2);
  EXPECT_NE(paillier_keygen(128, r1).pub.n, paillier_keygen(128, r2).pub.n);
}

// -- Batch kernels --

std::vector<const wide::fixword::Backend*> usable_backends() {
  std::vector<const wide::fixword::Backend*> out;
  for (const wide::fixword::Backend* b : wide::fixword::all_backends())
    if (b->available()) out.push_back(b);
  return out;
}

struct ForcedBackend {
  explicit ForcedBackend(const wide::fixword::Backend* b) {
    wide::fixword::force_backend(b);
  }
  ~ForcedBackend() { wide::fixword::force_backend(nullptr); }
};

// The satellite cross-check: decrypt_batch (two interleaved shared-exponent
// CRT batches) against decrypt_no_crt (the non-CRT lambda reference) on
// random ciphertexts, across multiple key seeds and every available backend.
TEST(PaillierBatch, DecryptBatchMatchesNoCrtReference) {
  for (std::uint64_t seed : {11u, 47u, 90001u}) {
    Rng rng(seed);
    const PaillierPrivateKey key = paillier_keygen(512, rng);
    std::vector<BigInt> ms, cs;
    for (int i = 0; i < 9; ++i) {
      ms.push_back(BigInt::random_below(rng, key.pub.n));
      cs.push_back(key.pub.encrypt(ms.back(), rng));
    }
    for (const wide::fixword::Backend* b : usable_backends()) {
      ForcedBackend forced(b);
      const std::vector<BigInt> got = key.decrypt_batch(cs);
      ASSERT_EQ(got.size(), ms.size());
      for (std::size_t i = 0; i < ms.size(); ++i) {
        EXPECT_EQ(got[i], ms[i]) << b->name() << " seed " << seed;
        EXPECT_EQ(got[i], key.decrypt_no_crt(cs[i])) << b->name();
        EXPECT_EQ(got[i], key.decrypt(cs[i])) << b->name();
      }
    }
  }
}

// Small keys (n^2 below the fixed-width grid) must take the fallback path of
// the batch API and still agree with the reference.
TEST(PaillierBatch, DecryptBatchFallsBackForSmallKeys) {
  Rng rng(77);
  const PaillierPrivateKey key = paillier_keygen(128, rng);
  std::vector<BigInt> ms, cs;
  for (int i = 0; i < 5; ++i) {
    ms.push_back(BigInt::random_below(rng, key.pub.n));
    cs.push_back(key.pub.encrypt(ms.back(), rng));
  }
  const std::vector<BigInt> got = key.decrypt_batch(cs);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(got[i], ms[i]);
    EXPECT_EQ(got[i], key.decrypt_no_crt(cs[i]));
  }
}

// encrypt_form_batch must be bit-identical to per-item encrypt_form fed the
// same randomizer stream: both sides draw r_i from per-item rngs with
// matched seeds.
TEST(PaillierBatch, EncryptFormBatchMatchesPerItem) {
  Rng rng(4242);
  const PaillierPrivateKey key = paillier_keygen(512, rng);
  const std::size_t n = 6;
  std::vector<BigInt> ms;
  std::vector<Rng> batch_rngs, item_rngs;
  for (std::size_t i = 0; i < n; ++i) {
    ms.push_back(BigInt::random_below(rng, key.pub.n));
    batch_rngs.emplace_back(1000 + i);
    item_rngs.emplace_back(1000 + i);
  }
  for (const wide::fixword::Backend* b : usable_backends()) {
    ForcedBackend forced(b);
    std::vector<Rng> brs = batch_rngs, irs = item_rngs;
    const auto forms = key.pub.encrypt_form_batch(ms, brs);
    ASSERT_EQ(forms.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const BigInt c = key.pub.from_form(forms[i]);
      EXPECT_EQ(c, key.pub.from_form(key.pub.encrypt_form(ms[i], irs[i])))
          << b->name();
      EXPECT_EQ(key.decrypt(c), ms[i]) << b->name();
    }
  }
}

TEST(PaillierBatch, RerandomizeFormBatchPreservesPlaintexts) {
  Rng rng(909);
  const PaillierPrivateKey key = paillier_keygen(512, rng);
  const std::size_t n = 5;
  std::vector<BigInt> ms;
  std::vector<wide::Montgomery::Form> cas;
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < n; ++i) {
    ms.push_back(BigInt::random_below(rng, key.pub.n));
    cas.push_back(key.pub.encrypt_form(ms.back(), rng));
    rngs.emplace_back(50 + i);
  }
  const auto fresh = key.pub.rerandomize_form_batch(cas, rngs);
  ASSERT_EQ(fresh.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NE(key.pub.from_form(fresh[i]), key.pub.from_form(cas[i]));
    EXPECT_EQ(key.decrypt(key.pub.from_form(fresh[i])), ms[i]);
  }
}

// Every *_form operation matches its BigInt-level equivalent.
TEST(PaillierForms, FormOpsMatchBigIntOps) {
  for (const std::uint64_t seed : {11u, 222u, 3333u}) {
    Rng rng(seed);
    const PaillierPrivateKey key = paillier_keygen(256, rng);
    const PaillierPublicKey& pk = key.pub;
    const BigInt ca = pk.encrypt(BigInt(1234), rng);
    const BigInt cb = pk.encrypt(BigInt(55), rng);
    const auto fa = pk.to_form(ca);
    const auto fb = pk.to_form(cb);

    EXPECT_EQ(pk.from_form(fa), ca);
    EXPECT_EQ(pk.from_form(pk.add_form(fa, fb)), pk.add(ca, cb));
    EXPECT_EQ(pk.from_form(pk.sub_form(fa, fb)), pk.sub(ca, cb));
    EXPECT_EQ(pk.from_form(pk.scalar_mul_form(BigInt(10007), fa)),
              pk.scalar_mul(BigInt(10007), ca));
    EXPECT_EQ(pk.from_form(pk.scalar_mul_form(BigInt(0), fa)),
              pk.scalar_mul(BigInt(0), ca));

    // Rerandomization draws fresh randomness, so compare plaintexts only.
    const BigInt cr = pk.from_form(pk.rerandomize_form(fa, rng));
    EXPECT_NE(cr, ca);
    EXPECT_EQ(key.decrypt(cr), key.decrypt(ca));
  }
}

TEST(PaillierForms, EncryptFormDecryptsAndSubHandlesNegatives) {
  Rng rng(31);
  const PaillierPrivateKey key = paillier_keygen(256, rng);
  const PaillierPublicKey& pk = key.pub;

  const BigInt c = pk.from_form(pk.encrypt_form(BigInt(424242), rng));
  EXPECT_EQ(key.decrypt(c).to_u64(), 424242u);

  // sub via ciphertext inverse: Enc(3) - Enc(10) reads back as -7.
  const BigInt ca = pk.encrypt(BigInt(3), rng);
  const BigInt cb = pk.encrypt(BigInt(10), rng);
  EXPECT_EQ(key.decrypt_signed(pk.sub(ca, cb)).to_i64(), -7);
}

}  // namespace
}  // namespace kgrid::hom
