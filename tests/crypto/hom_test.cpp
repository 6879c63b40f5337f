#include "crypto/hom.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/packing.hpp"
#include "obs/crypto_counters.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace kgrid::hom {
namespace {

// The backend-equivalence suite: every behaviour of the homomorphic layer
// must be identical under the plain ideal functionality and real Paillier,
// since the protocol code is backend-agnostic.
class HomBackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  HomBackendTest() : rng_(99) {
    ctx_ = GetParam() == Backend::kPlain ? Context::make_plain()
                                         : Context::make_paillier(512, rng_);
  }

  Rng rng_;
  ContextPtr ctx_;
};

TEST_P(HomBackendTest, EncryptDecryptFields) {
  const std::vector<std::uint64_t> fields = {5, 0, 123456789, 1ull << 40};
  const Cipher c = ctx_->encrypt_key().encrypt(fields, rng_);
  EXPECT_EQ(ctx_->decrypt_key().decrypt(c, fields.size()), fields);
}

TEST_P(HomBackendTest, FieldwiseAddition) {
  const auto enc = ctx_->encrypt_key();
  const auto eval = ctx_->eval_handle();
  const auto dec = ctx_->decrypt_key();
  const Cipher a = enc.encrypt(std::vector<std::uint64_t>{1, 2, 3}, rng_);
  const Cipher b = enc.encrypt(std::vector<std::uint64_t>{10, 20, 30}, rng_);
  EXPECT_EQ(dec.decrypt(eval.add(a, b), 3),
            (std::vector<std::uint64_t>{11, 22, 33}));
}

TEST_P(HomBackendTest, AdditionAssociativeOverManyCiphers) {
  const auto enc = ctx_->encrypt_key();
  const auto eval = ctx_->eval_handle();
  Cipher acc = eval.zero(2, rng_);
  std::uint64_t expect0 = 0, expect1 = 0;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    acc = eval.add(acc, enc.encrypt(std::vector<std::uint64_t>{i, i * i}, rng_));
    expect0 += i;
    expect1 += i * i;
  }
  EXPECT_EQ(ctx_->decrypt_key().decrypt(acc, 2),
            (std::vector<std::uint64_t>{expect0, expect1}));
}

TEST_P(HomBackendTest, ScalarMul) {
  const Cipher a =
      ctx_->encrypt_key().encrypt(std::vector<std::uint64_t>{3, 7}, rng_);
  const Cipher c = ctx_->eval_handle().scalar_mul(6, a);
  EXPECT_EQ(ctx_->decrypt_key().decrypt(c, 2),
            (std::vector<std::uint64_t>{18, 42}));
}

TEST_P(HomBackendTest, SubSingleSigned) {
  const auto enc = ctx_->encrypt_key();
  const auto eval = ctx_->eval_handle();
  const auto dec = ctx_->decrypt_key();
  const Cipher a = enc.encrypt_value(58, rng_);
  const Cipher b = enc.encrypt_value(100, rng_);
  EXPECT_EQ(dec.decrypt_signed(eval.sub_single(b, a)), 42);
  EXPECT_EQ(dec.decrypt_signed(eval.sub_single(a, b)), -42);
  EXPECT_EQ(dec.decrypt_signed(eval.sub_single(a, a)), 0);
}

TEST_P(HomBackendTest, RerandomizeChangesCipherNotPlaintext) {
  const Cipher a =
      ctx_->encrypt_key().encrypt(std::vector<std::uint64_t>{9, 8}, rng_);
  const Cipher b = ctx_->eval_handle().rerandomize(a, rng_);
  EXPECT_NE(a, b);  // a receiver cannot tell the counter was unchanged
  EXPECT_EQ(ctx_->decrypt_key().decrypt(a, 2), ctx_->decrypt_key().decrypt(b, 2));
}

TEST_P(HomBackendTest, TwoEncryptionsOfSameValueDiffer) {
  const auto enc = ctx_->encrypt_key();
  const Cipher a = enc.encrypt_value(5, rng_);
  const Cipher b = enc.encrypt_value(5, rng_);
  EXPECT_NE(a, b);
}

TEST_P(HomBackendTest, ZeroIsAdditiveIdentity) {
  const auto eval = ctx_->eval_handle();
  const Cipher a =
      ctx_->encrypt_key().encrypt(std::vector<std::uint64_t>{4, 5, 6}, rng_);
  const Cipher z = eval.zero(3, rng_);
  EXPECT_EQ(ctx_->decrypt_key().decrypt(eval.add(a, z), 3),
            (std::vector<std::uint64_t>{4, 5, 6}));
}

/// The wire encoding of a cipher: every bit of its state (fields and salt,
/// or the Paillier limbs), so equal bytes mean the same ciphertext.
std::string cipher_bytes(const Cipher& c) {
  util::ByteWriter w;
  encode_cipher(w, c);
  return w.bytes();
}

/// The hom.* op counters, to compare what two equivalent op sequences paid.
std::vector<std::uint64_t> hom_op_counts() {
  const auto& cc = obs::crypto_counters();
  return {cc.hom_encrypts.value(), cc.hom_decrypts.value(),
          cc.hom_adds.value(), cc.hom_scalar_muls.value(),
          cc.hom_rerandomizes.value()};
}

std::vector<std::uint64_t> counts_since(const std::vector<std::uint64_t>& t0) {
  std::vector<std::uint64_t> d = hom_op_counts();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] -= t0[i];
  return d;
}

TEST_P(HomBackendTest, AddIntoMatchesAddBitForBit) {
  const auto enc = ctx_->encrypt_key();
  const auto eval = ctx_->eval_handle();
  const Cipher a = enc.encrypt(std::vector<std::uint64_t>{1, 2}, rng_);
  const Cipher b = enc.encrypt(std::vector<std::uint64_t>{10, 20, 30}, rng_);

  Cipher acc = a;  // shorter accumulator: b's extra field zero-extends it
  eval.add_into(acc, b);
  EXPECT_EQ(acc, eval.add(a, b));
  Cipher acc2 = b;
  eval.add_into(acc2, a);
  EXPECT_EQ(acc2, eval.add(b, a));

  Cipher self = a;  // the same object on both sides
  eval.add_into(self, self);
  EXPECT_EQ(self, eval.add(a, a));

  Cipher x = a;  // two ciphers copied from one source
  const Cipher y = a;
  eval.add_into(x, y);
  EXPECT_EQ(x, eval.add(a, a));
  EXPECT_EQ(y, a);
  EXPECT_EQ(ctx_->decrypt_key().decrypt(x, 2),
            (std::vector<std::uint64_t>{2, 4}));
}

TEST_P(HomBackendTest, RerandomizeIntoMatchesRerandomize) {
  const Cipher a =
      ctx_->encrypt_key().encrypt(std::vector<std::uint64_t>{7, 11}, rng_);
  Rng r1(2024);
  Rng r2(2024);
  const auto eval = ctx_->eval_handle();
  Cipher c = a;
  eval.rerandomize_into(c, r1);
  EXPECT_EQ(c, eval.rerandomize(a, r2));
  EXPECT_NE(c, a);
  EXPECT_EQ(r1(), r2());  // same number of draws from the Rng
}

TEST_P(HomBackendTest, AggregateRerandomizedEqualsBatchThenFold) {
  const auto enc = ctx_->encrypt_key();
  const Cipher a = enc.encrypt(std::vector<std::uint64_t>{1, 2, 3}, rng_);
  const Cipher b = enc.encrypt(std::vector<std::uint64_t>{40}, rng_);
  const Cipher c = enc.encrypt(std::vector<std::uint64_t>{500, 600}, rng_);
  // `a` twice: a double-counting broker batches one contribution twice.
  const std::vector<const Cipher*> items = {&a, &b, &a, &c};

  Rng r1(77);
  Rng r2(77);
  const auto eval = ctx_->eval_handle();
  const auto t0 = hom_op_counts();
  const Cipher fused = eval.aggregate_rerandomized(items, r1);
  const auto fused_ops = counts_since(t0);

  const auto t1 = hom_op_counts();
  const std::vector<Cipher> fresh = eval.rerandomize_batch(items, r2);
  Cipher fold = fresh[0];
  for (std::size_t i = 1; i < fresh.size(); ++i) fold = eval.add(fold, fresh[i]);
  const auto unfused_ops = counts_since(t1);

  EXPECT_EQ(fused, fold);
  EXPECT_EQ(fused_ops, unfused_ops);
  EXPECT_EQ(r1(), r2());
  EXPECT_EQ(ctx_->decrypt_key().decrypt(fused, 3),
            (std::vector<std::uint64_t>{542, 604, 6}));
}

TEST_P(HomBackendTest, CopyIsUnchangedWhenSourceMutatesInPlace) {
  const auto enc = ctx_->encrypt_key();
  const auto eval = ctx_->eval_handle();
  const auto dec = ctx_->decrypt_key();
  Cipher src = enc.encrypt(std::vector<std::uint64_t>{3, 4}, rng_);
  const Cipher b = enc.encrypt(std::vector<std::uint64_t>{100, 200}, rng_);
  const Cipher copy = src;
  const std::string before = cipher_bytes(copy);

  eval.add_into(src, b);
  EXPECT_EQ(cipher_bytes(copy), before);
  EXPECT_EQ(dec.decrypt(copy, 2), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(dec.decrypt(src, 2), (std::vector<std::uint64_t>{103, 204}));

  const Cipher copy2 = src;
  const std::string before2 = cipher_bytes(copy2);
  eval.rerandomize_into(src, rng_);
  EXPECT_EQ(cipher_bytes(copy2), before2);
  EXPECT_EQ(cipher_bytes(copy), before);
  EXPECT_NE(src, copy2);
  EXPECT_EQ(dec.decrypt(src, 2), dec.decrypt(copy2, 2));
}

INSTANTIATE_TEST_SUITE_P(Backends, HomBackendTest,
                         ::testing::Values(Backend::kPlain, Backend::kPaillier),
                         [](const auto& tpi) {
                           return tpi.param == Backend::kPlain ? "Plain"
                                                               : "Paillier";
                         });

TEST(HomContext, PaillierCapacityBound) {
  Rng rng(1);
  auto ctx = Context::make_paillier(256, rng);
  EXPECT_GE(ctx->max_fields(), 3u);
  EXPECT_LE(ctx->max_fields(), (256u - 1) / 64);
  EXPECT_GT(Context::make_plain()->max_fields(), 1u << 20);
}

TEST(Packing, RoundTrip) {
  const std::vector<std::uint64_t> fields = {0, 1, 0xFFFFFFFFFFFFFFFFull, 7};
  EXPECT_EQ(unpack_fields(pack_fields(fields), 4), fields);
}

TEST(Packing, ShortPlaintextZeroPads) {
  EXPECT_EQ(unpack_fields(wide::BigInt(5), 3),
            (std::vector<std::uint64_t>{5, 0, 0}));
}

TEST(Packing, PackedAdditionIsFieldwiseWithoutOverflow) {
  const std::vector<std::uint64_t> a = {1ull << 62, 3, 10};
  const std::vector<std::uint64_t> b = {1ull << 60, 4, 20};
  const auto sum = pack_fields(a) + pack_fields(b);
  EXPECT_EQ(unpack_fields(sum, 3),
            (std::vector<std::uint64_t>{(1ull << 62) + (1ull << 60), 7, 30}));
}

}  // namespace
}  // namespace kgrid::hom
