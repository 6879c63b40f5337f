// Process-global crypto operation accounting — the paper's dominant cost
// model (every reveal is a Paillier decryption; every forwarded counter is
// an addition plus a rerandomization).
//
// Two layers are counted separately:
//
//   * hom.* — protocol-level operations through the backend-agnostic
//     hom::Context interface. These are identical for the Paillier and the
//     plain ideal-functionality backend, so a large plain-backend sweep
//     still reports exactly how many cryptographic operations a real
//     deployment would have paid for (DESIGN.md "Paillier at simulation
//     scale").
//   * paillier.* / modexps / mont_muls — real bignum work actually
//     performed (zero under the plain backend).
//
// The counters are relaxed-atomic 64-bit increments (obs::Counter), so
// crypto batch jobs running on sim::Executor workers can bump them
// concurrently; the totals are exact for any interleaving, keeping the
// export deterministic across thread counts. The cost stays negligible next
// to the work counted (a modexp is thousands of limb multiplies). reset()
// lets a bench scope counts to one configuration; BENCH_*.json embeds the
// export via obs::BenchReport (docs/METRICS.md documents every field).
#pragma once

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace kgrid::obs {

struct CryptoCounters {
  // hom layer (backend-agnostic protocol op counts)
  Counter hom_encrypts;        // EncryptKey::encrypt + EvalHandle::zero
  Counter hom_decrypts;        // DecryptKey::decrypt / decrypt_signed
  Counter hom_adds;            // EvalHandle::add / sub_single
  Counter hom_scalar_muls;     // EvalHandle::scalar_mul
  Counter hom_rerandomizes;    // EvalHandle::rerandomize

  // paillier layer (real cipher work only)
  Counter paillier_encrypts;
  Counter paillier_decrypts;
  Counter paillier_rerandomizes;
  Counter paillier_keygens;

  // wide layer (the arithmetic both of the above bottom out in)
  Counter modexps;           // Montgomery::pow/pow_form/pow_binary + even-modulus mod_pow
  Counter windowed_modexps;  // subset of modexps that took a windowed ladder (w >= 2)
  Counter batch_modexps;     // subset of modexps executed through the
                             // interleaved fixed-width batch kernels
  Counter mont_muls;         // Montgomery::mul / mul_form[_into] (homomorphic-add cost)

  // Retired: nothing increments these two, and to_json() omits them. Every
  // blinding factor is now drawn from the caller's Rng (paillier.hpp), so
  // there is no randomizer precompute left to hit or miss. They remain only
  // because gridbench/gridbench.cpp still reads them for its
  // `crypto.pool.hit_ratio` metric; both go when that metric is retired.
  Counter pool_hits;
  Counter pool_misses;

  void reset() {
    hom_encrypts.reset();
    hom_decrypts.reset();
    hom_adds.reset();
    hom_scalar_muls.reset();
    hom_rerandomizes.reset();
    paillier_encrypts.reset();
    paillier_decrypts.reset();
    paillier_rerandomizes.reset();
    paillier_keygens.reset();
    modexps.reset();
    windowed_modexps.reset();
    batch_modexps.reset();
    mont_muls.reset();
    pool_hits.reset();
    pool_misses.reset();
  }

  Json to_json() const {
    Json hom = Json::object();
    hom.set("encrypts", hom_encrypts.value());
    hom.set("decrypts", hom_decrypts.value());
    hom.set("adds", hom_adds.value());
    hom.set("scalar_muls", hom_scalar_muls.value());
    hom.set("rerandomizes", hom_rerandomizes.value());
    Json paillier = Json::object();
    paillier.set("encryptions", paillier_encrypts.value());
    paillier.set("decryptions", paillier_decrypts.value());
    paillier.set("rerandomizations", paillier_rerandomizes.value());
    paillier.set("keygens", paillier_keygens.value());
    paillier.set("modexps", modexps.value());
    paillier.set("windowed_modexps", windowed_modexps.value());
    paillier.set("batch_modexps", batch_modexps.value());
    paillier.set("mont_muls", mont_muls.value());
    Json j = Json::object();
    j.set("hom", std::move(hom));
    j.set("paillier", std::move(paillier));
    return j;
  }
};

/// The process-global instance (thread-safe increments; see header note).
inline CryptoCounters& crypto_counters() {
  static CryptoCounters counters;
  return counters;
}

}  // namespace kgrid::obs
