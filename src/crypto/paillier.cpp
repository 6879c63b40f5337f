#include "crypto/paillier.hpp"

#include "obs/crypto_counters.hpp"
#include "util/check.hpp"
#include "wide/prime.hpp"

namespace kgrid::hom {

using wide::BigInt;
using Form = wide::Montgomery::Form;

BigInt PaillierPublicKey::random_unit(Rng& rng) const {
  // Uniform in [1, n); a non-unit reveals a factor of n, which happens with
  // negligible probability for honestly generated keys — retry regardless.
  for (;;) {
    BigInt r = BigInt(1) + BigInt::random_below(rng, n - BigInt(1));
    if (wide::gcd(r, n) == BigInt(1)) return r;
  }
}

Form PaillierPublicKey::randomizer_form(Rng& rng) const {
  return mont_n2->pow_form(mont_n2->to_form(random_unit(rng)), n);
}

Form PaillierPublicKey::to_form(const BigInt& c) const {
  return mont_n2->to_form(c);
}

BigInt PaillierPublicKey::from_form(const Form& c) const {
  return mont_n2->from_form(c);
}

Form PaillierPublicKey::encrypt_form(const BigInt& m, Rng& rng) const {
  KGRID_CHECK(!m.is_negative() && m < n, "Paillier plaintext out of range");
  obs::crypto_counters().paillier_encrypts.inc();
  // (1 + m n) multiplied by r^n mod n^2; with m < n the product is already
  // below n^2 (1 + mn <= n^2 - n + 1), so no reduction is needed.
  const BigInt gm = BigInt(1) + m * n;
  return mont_n2->mul_form(mont_n2->to_form(gm), randomizer_form(rng));
}

std::vector<Form> PaillierPublicKey::randomizer_forms(std::size_t n_items,
                                                      std::span<Rng> rngs) const {
  std::vector<Form> bases;
  bases.reserve(n_items);
  for (std::size_t i = 0; i < n_items; ++i)
    bases.push_back(mont_n2->to_form(random_unit(rngs[i])));
  return mont_n2->pow_form_batch(bases, n);
}

std::vector<Form> PaillierPublicKey::encrypt_form_batch(
    std::span<const BigInt> ms, std::span<Rng> rngs) const {
  KGRID_CHECK(ms.size() == rngs.size(),
              "encrypt_form_batch: ms/rngs size mismatch");
  const std::size_t count = ms.size();
  obs::crypto_counters().paillier_encrypts.inc(count);
  std::vector<Form> gms;
  gms.reserve(count);
  for (const BigInt& m : ms) {
    KGRID_CHECK(!m.is_negative() && m < n, "Paillier plaintext out of range");
    gms.push_back(mont_n2->to_form(BigInt(1) + m * n));
  }
  return mont_n2->mul_form_batch(gms, randomizer_forms(count, rngs));
}

std::vector<Form> PaillierPublicKey::rerandomize_form_batch(
    std::span<const Form> cas, std::span<Rng> rngs) const {
  KGRID_CHECK(cas.size() == rngs.size(),
              "rerandomize_form_batch: cas/rngs size mismatch");
  obs::crypto_counters().paillier_rerandomizes.inc(cas.size());
  return mont_n2->mul_form_batch(cas, randomizer_forms(cas.size(), rngs));
}

BigInt PaillierPublicKey::encrypt(const BigInt& m, Rng& rng) const {
  return mont_n2->from_form(encrypt_form(m, rng));
}

BigInt PaillierPublicKey::add(const BigInt& ca, const BigInt& cb) const {
  return mont_n2->mul(ca, cb);
}

Form PaillierPublicKey::add_form(const Form& ca, const Form& cb) const {
  return mont_n2->mul_form(ca, cb);
}

BigInt PaillierPublicKey::sub(const BigInt& ca, const BigInt& cb) const {
  // Enc(a - b) = Enc(a) · Enc(b)^-1 (the inverse of g^b r^n is g^(-b) r^-n,
  // a valid cipher of -b mod n). One extended-gcd inverse over n^2 instead
  // of the textbook Enc(b)^(n-1), which is a full-width modexp.
  return mont_n2->mul(ca, wide::mod_inverse(cb, n2));
}

Form PaillierPublicKey::sub_form(const Form& ca, const Form& cb) const {
  const BigInt inv = wide::mod_inverse(mont_n2->from_form(cb), n2);
  return mont_n2->mul_form(ca, mont_n2->to_form(inv));
}

BigInt PaillierPublicKey::scalar_mul(const BigInt& m, const BigInt& ca) const {
  const BigInt e = m.mod_floor(n);
  if (e.is_zero()) {
    // Enc(0) with degenerate randomness; callers rerandomize when the result
    // travels to another participant.
    return BigInt(1);
  }
  return mont_n2->pow(ca, e);
}

Form PaillierPublicKey::scalar_mul_form(const BigInt& m, const Form& ca) const {
  const BigInt e = m.mod_floor(n);
  if (e.is_zero()) return mont_n2->one_form();
  return mont_n2->pow_form(ca, e);
}

BigInt PaillierPublicKey::rerandomize(const BigInt& ca, Rng& rng) const {
  return mont_n2->from_form(rerandomize_form(mont_n2->to_form(ca), rng));
}

Form PaillierPublicKey::rerandomize_form(const Form& ca, Rng& rng) const {
  obs::crypto_counters().paillier_rerandomizes.inc();
  return mont_n2->mul_form(ca, randomizer_form(rng));
}

BigInt PaillierPrivateKey::decrypt_no_crt(const BigInt& c) const {
  KGRID_CHECK(!c.is_negative() && c < pub.n2, "Paillier ciphertext out of range");
  obs::crypto_counters().paillier_decrypts.inc();
  const BigInt u = pub.mont_n2->pow(c, lambda);
  const BigInt l = (u - BigInt(1)) / pub.n;
  return (l * mu) % pub.n;
}

BigInt PaillierPrivateKey::decrypt(const BigInt& c) const {
  KGRID_CHECK(!c.is_negative() && c < pub.n2, "Paillier ciphertext out of range");
  obs::crypto_counters().paillier_decrypts.inc();
  // m_p = L_p(c^(p-1) mod p^2) · h_p mod p, and likewise mod q.
  const BigInt p2 = mont_p2->modulus();
  const BigInt q2 = mont_q2->modulus();
  const BigInt up = mont_p2->pow(c % p2, p - BigInt(1));
  const BigInt uq = mont_q2->pow(c % q2, q - BigInt(1));
  const BigInt mp = (((up - BigInt(1)) / p) * hp) % p;
  const BigInt mq = (((uq - BigInt(1)) / q) * hq) % q;
  // Garner: m = m_q + q·((m_p − m_q)·q^-1 mod p).
  const BigInt diff = (mp - mq).mod_floor(p);
  return mq + q * ((diff * q_inv_p) % p);
}

std::vector<BigInt> PaillierPrivateKey::decrypt_batch(
    std::span<const BigInt> cs) const {
  const std::size_t count = cs.size();
  obs::crypto_counters().paillier_decrypts.inc(count);
  const BigInt p2 = mont_p2->modulus();
  const BigInt q2 = mont_q2->modulus();
  std::vector<Form> bp, bq;
  bp.reserve(count);
  bq.reserve(count);
  for (const BigInt& c : cs) {
    KGRID_CHECK(!c.is_negative() && c < pub.n2,
                "Paillier ciphertext out of range");
    bp.push_back(mont_p2->to_form(c % p2));
    bq.push_back(mont_q2->to_form(c % q2));
  }
  // The two half-width exponentiations of every item, interleaved: one
  // shared-exponent batch mod p^2 and one mod q^2.
  const std::vector<BigInt> ups =
      mont_p2->from_form_batch(mont_p2->pow_form_batch(bp, p - BigInt(1)));
  const std::vector<BigInt> uqs =
      mont_q2->from_form_batch(mont_q2->pow_form_batch(bq, q - BigInt(1)));
  std::vector<BigInt> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const BigInt mp = (((ups[i] - BigInt(1)) / p) * hp) % p;
    const BigInt mq = (((uqs[i] - BigInt(1)) / q) * hq) % q;
    const BigInt diff = (mp - mq).mod_floor(p);
    out[i] = mq + q * ((diff * q_inv_p) % p);
  }
  return out;
}

BigInt PaillierPrivateKey::decrypt_signed(const BigInt& c) const {
  BigInt m = decrypt(c);
  if (m + m > pub.n) m -= pub.n;
  return m;
}

PaillierPrivateKey paillier_keygen(std::size_t n_bits, Rng& rng) {
  KGRID_CHECK(n_bits >= 64, "Paillier modulus too small");
  obs::crypto_counters().paillier_keygens.inc();
  const std::size_t half = n_bits / 2;
  for (;;) {
    const BigInt p = wide::random_prime(rng, half);
    const BigInt q = wide::random_prime(rng, half);
    if (p == q) continue;
    const BigInt n = p * q;
    const BigInt lambda =
        wide::lcm(p - BigInt(1), q - BigInt(1));
    // With equal-width primes gcd(n, lambda) == 1 always holds; keep the
    // check as a key-sanity invariant.
    if (wide::gcd(n, lambda) != BigInt(1)) continue;

    PaillierPrivateKey key;
    key.pub.n = n;
    key.pub.n2 = n * n;
    key.pub.mont_n2 = std::make_shared<const wide::Montgomery>(key.pub.n2);
    key.lambda = lambda;
    // g = n+1 makes L(g^lambda mod n^2) = lambda mod n, so mu = lambda^-1.
    key.mu = wide::mod_inverse(lambda, n);

    // CRT tables. With g = n+1: g^(p-1) mod p^2 = 1 + (p-1)n mod p^2, so
    // L_p of it is (p-1)q mod p; compute generically for robustness.
    key.p = p;
    key.q = q;
    key.mont_p2 = std::make_shared<const wide::Montgomery>(p * p);
    key.mont_q2 = std::make_shared<const wide::Montgomery>(q * q);
    const BigInt gp = key.mont_p2->pow(key.pub.n + BigInt(1), p - BigInt(1));
    const BigInt gq = key.mont_q2->pow(key.pub.n + BigInt(1), q - BigInt(1));
    key.hp = wide::mod_inverse((gp - BigInt(1)) / p, p);
    key.hq = wide::mod_inverse((gq - BigInt(1)) / q, q);
    key.q_inv_p = wide::mod_inverse(q, p);
    return key;
  }
}

BigInt paillier_encrypt_signed(const PaillierPublicKey& pk, const BigInt& m,
                               Rng& rng) {
  return pk.encrypt(m.mod_floor(pk.n), rng);
}

}  // namespace kgrid::hom
