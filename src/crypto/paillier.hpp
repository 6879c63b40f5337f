// The Paillier probabilistic additively-homomorphic public-key cryptosystem
// (Paillier, Eurocrypt'99), which the paper's footnote 1 names as the basis of
// its simulations.
//
//   KeyGen: n = p q (p, q random primes of equal width), g = n + 1,
//           lambda = lcm(p-1, q-1), mu = lambda^-1 mod n.
//   Enc(m; r) = (1 + m n) r^n mod n^2,   r uniform in Z_n^*.
//   Dec(c)    = L(c^lambda mod n^2) mu mod n,   L(u) = (u - 1) / n.
//
// Homomorphisms (all mod n^2): Enc(a)·Enc(b) = Enc(a+b),
// Enc(a)^m = Enc(a m), Enc(a)·r^n = fresh randomization of Enc(a).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "wide/bigint.hpp"
#include "wide/modular.hpp"

namespace kgrid::hom {

struct PaillierPublicKey {
  wide::BigInt n;
  wide::BigInt n2;
  // Montgomery context for the hot modulus n^2 (shared, immutable).
  std::shared_ptr<const wide::Montgomery> mont_n2;

  std::size_t plaintext_bits() const { return n.bit_length(); }

  /// Enc(m; fresh r). m must lie in [0, n).
  wide::BigInt encrypt(const wide::BigInt& m, Rng& rng) const;

  /// Homomorphic addition: Enc(a+b) from Enc(a), Enc(b).
  wide::BigInt add(const wide::BigInt& ca, const wide::BigInt& cb) const;

  /// Homomorphic subtraction: Enc(a-b mod n).
  wide::BigInt sub(const wide::BigInt& ca, const wide::BigInt& cb) const;

  /// Homomorphic scalar multiple: Enc(a·m mod n).
  wide::BigInt scalar_mul(const wide::BigInt& m, const wide::BigInt& ca) const;

  /// Fresh randomization of an existing ciphertext (same plaintext,
  /// indistinguishable cipher) — the paper's rerandomization operator.
  wide::BigInt rerandomize(const wide::BigInt& ca, Rng& rng) const;

  // Montgomery-form variants: ciphertexts that chain through several
  // homomorphic operations (oblivious counters) stay in Montgomery
  // representation over n^2, paying the R-conversion once at the edges
  // instead of four Montgomery multiplications inside every op.

  /// Pin a ciphertext to Montgomery form over n^2 / read one back out.
  wide::Montgomery::Form to_form(const wide::BigInt& c) const;
  wide::BigInt from_form(const wide::Montgomery::Form& c) const;

  /// Enc(m; fresh r), result left in Montgomery form.
  wide::Montgomery::Form encrypt_form(const wide::BigInt& m, Rng& rng) const;

  /// Enc(a+b) from forms: exactly one Montgomery multiplication.
  wide::Montgomery::Form add_form(const wide::Montgomery::Form& ca,
                                  const wide::Montgomery::Form& cb) const;

  /// Enc(a-b mod n) from forms.
  wide::Montgomery::Form sub_form(const wide::Montgomery::Form& ca,
                                  const wide::Montgomery::Form& cb) const;

  /// Enc(a·m mod n) from a form.
  wide::Montgomery::Form scalar_mul_form(const wide::BigInt& m,
                                         const wide::Montgomery::Form& ca) const;

  /// Fresh randomization of a form: one multiplication by a fresh r^n.
  wide::Montgomery::Form rerandomize_form(const wide::Montgomery::Form& ca,
                                          Rng& rng) const;

  // Batch variants: the modexps and Montgomery multiplications of all items
  // run through wide::Montgomery's interleaved batch kernels (SIMD lanes in
  // lockstep). r_i is drawn from rngs[i] and the r_i^n are computed as one
  // shared-exponent batch, so results are bit-identical to per-item calls
  // fed the same Rngs.

  /// Enc(ms[i]; fresh r) for every i, results in Montgomery form.
  std::vector<wide::Montgomery::Form> encrypt_form_batch(
      std::span<const wide::BigInt> ms, std::span<Rng> rngs) const;

  /// Fresh randomization of each form.
  std::vector<wide::Montgomery::Form> rerandomize_form_batch(
      std::span<const wide::Montgomery::Form> cas, std::span<Rng> rngs) const;

 private:
  wide::BigInt random_unit(Rng& rng) const;
  /// A fresh r^n factor in Montgomery form, r drawn from `rng`.
  wide::Montgomery::Form randomizer_form(Rng& rng) const;
  /// n fresh r^n factors through one interleaved batch exponentiation,
  /// r_i drawn from rngs[i].
  std::vector<wide::Montgomery::Form> randomizer_forms(std::size_t n,
                                                       std::span<Rng> rngs) const;
};

struct PaillierPrivateKey {
  PaillierPublicKey pub;
  wide::BigInt lambda;
  wide::BigInt mu;

  // CRT acceleration (controllers decrypt on every SFE, so this is the
  // secure protocol's hottest primitive): exponentiation is done separately
  // mod p^2 and q^2 — four half-width modexps beat one full-width one by
  // roughly 4x — and recombined with Garner's formula.
  wide::BigInt p;
  wide::BigInt q;
  std::shared_ptr<const wide::Montgomery> mont_p2;
  std::shared_ptr<const wide::Montgomery> mont_q2;
  wide::BigInt hp;       // lambda_p^-1 of L_p(g^lambda_p mod p^2), mod p
  wide::BigInt hq;       // likewise mod q
  wide::BigInt q_inv_p;  // q^-1 mod p, for Garner recombination

  /// Plaintext in [0, n).
  wide::BigInt decrypt(const wide::BigInt& c) const;

  /// Plaintext interpreted in (-n/2, n/2] — the paper's "standard shifting
  /// techniques ... to support the encryption of negative integers".
  wide::BigInt decrypt_signed(const wide::BigInt& c) const;

  /// Reference implementation without CRT (kept for cross-checking; the
  /// unit tests assert both paths agree).
  wide::BigInt decrypt_no_crt(const wide::BigInt& c) const;

  /// CRT decryption of a batch: the half-width exponentiations of all items
  /// run as two shared-exponent interleaved batches (mod p^2 and mod q^2),
  /// then the L-function/Garner tail per item. Bit-identical to decrypt().
  std::vector<wide::BigInt> decrypt_batch(
      std::span<const wide::BigInt> cs) const;
};

/// Generate a fresh keypair with an n of (about) `n_bits` bits.
PaillierPrivateKey paillier_keygen(std::size_t n_bits, Rng& rng);

/// Encrypt a signed value by reducing into [0, n).
wide::BigInt paillier_encrypt_signed(const PaillierPublicKey& pk,
                                     const wide::BigInt& m, Rng& rng);

}  // namespace kgrid::hom
