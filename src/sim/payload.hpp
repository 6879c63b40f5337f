// Typed event payloads for the simulation engine.
//
// The protocol exchanges a *closed* message set — SecureRuleMessage and
// MaliciousReport from Secure-Majority-Rule, RuleMessage from the
// Majority-Rule baseline — so the engine stores payloads in a variant over
// exactly those types instead of a heap-allocated std::any. A send of a
// protocol message is then allocation-free (the message moves into the
// pooled event slot; a SecureRuleMessage's plain-backend ciphertext lives
// inline in it, and a Paillier one is a copy-on-write body shared by
// refcount, see crypto/hom.hpp), and delivery dispatch is an index check
// instead of a typeid comparison. Neither message carries a Candidate by
// value: a SecureRuleMessage names it by per-edge id (core/messages.hpp)
// and a RuleMessage points at its sender's shared copy, so the largest
// alternative is the 96 B inline cipher plus 24 B and the variant is
// 128 B (tests/sim/engine_test.cpp pins sizeof(Event) <= 176).
//
// Everything else — test fixtures, ad-hoc harness messages — rides in the
// std::any escape hatch, which restores the exact pre-variant semantics
// (including per-payload allocation) for types outside the closed set.
#pragma once

#include <any>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <variant>

#include "core/messages.hpp"
#include "majority/messages.hpp"
#include "util/check.hpp"

namespace kgrid::sim {

class Payload {
 public:
  Payload() = default;

  /// Implicit like std::any: `engine.send(from, to, delay, SomeMessage{..})`.
  /// Closed-set message types go into their variant alternative in place;
  /// anything else is wrapped in the std::any escape hatch.
  template <class T, class D = std::decay_t<T>,
            std::enable_if_t<!std::is_same_v<D, Payload>, int> = 0>
  Payload(T&& value) {  // NOLINT(google-explicit-constructor)
    if constexpr (kClosedSet<D>)
      v_.emplace<D>(std::forward<T>(value));
    else
      v_.emplace<std::any>(std::forward<T>(value));
  }

  /// In-place assignment with the constructor's dispatch rules (plus
  /// Payload itself). Lets the engine construct a message directly in its
  /// pooled event slot instead of moving a Payload through the call chain.
  template <class T, class D = std::decay_t<T>>
  void assign(T&& value) {
    if constexpr (std::is_same_v<D, Payload>)
      v_ = std::forward<T>(value).v_;
    else if constexpr (kClosedSet<D>)
      v_.emplace<D>(std::forward<T>(value));
    else
      v_.emplace<std::any>(std::forward<T>(value));
  }

  bool empty() const {
    if (const auto* a = std::get_if<std::any>(&v_)) return !a->has_value();
    return std::holds_alternative<std::monostate>(v_);
  }

  /// Dynamic type of the carried message (typeid(void) when empty) — what
  /// EngineMetrics keys its per-message-type accounting on, so closed-set
  /// and escape-hatch payloads of the same type report identically.
  const std::type_info& type() const {
    switch (v_.index()) {
      case 1: return typeid(core::SecureRuleMessage);
      case 2: return typeid(core::MaliciousReport);
      case 3: return typeid(majority::RuleMessage);
      case 4: return std::get<std::any>(v_).type();
      default: return typeid(void);
    }
  }

  /// any_cast-style access: null when the payload holds something else.
  template <class T>
  T* get_if() {
    if constexpr (kClosedSet<T>) {
      return std::get_if<T>(&v_);
    } else {
      auto* a = std::get_if<std::any>(&v_);
      return a == nullptr ? nullptr : std::any_cast<T>(a);
    }
  }

  template <class T>
  const T* get_if() const {
    if constexpr (kClosedSet<T>) {
      return std::get_if<T>(&v_);
    } else {
      const auto* a = std::get_if<std::any>(&v_);
      return a == nullptr ? nullptr : std::any_cast<T>(a);
    }
  }

  /// Re-materialize value semantics for any copy-on-write message body
  /// (today only a SecureRuleMessage's Paillier ciphertext). The sharded
  /// engine calls this on every cross-lane mailbox entry, so no cipher body
  /// is shared between shards (docs/SHARDING.md "Mailbox lifecycle"). A
  /// shared candidate (announcement or RuleMessage) stays shared: it is
  /// immutable and its refcount is atomic.
  void detach() {
    if (auto* msg = std::get_if<core::SecureRuleMessage>(&v_))
      msg->counter.detach();
  }

  /// Checked access (the handler knows what it was sent).
  template <class T>
  const T& get() const {
    const T* p = get_if<T>();
    KGRID_CHECK(p != nullptr, "payload type mismatch");
    return *p;
  }

  template <class T>
  T& get() {
    T* p = get_if<T>();
    KGRID_CHECK(p != nullptr, "payload type mismatch");
    return *p;
  }

 private:
  template <class T>
  static constexpr bool kClosedSet =
      std::is_same_v<T, core::SecureRuleMessage> ||
      std::is_same_v<T, core::MaliciousReport> ||
      std::is_same_v<T, majority::RuleMessage>;

  std::variant<std::monostate, core::SecureRuleMessage, core::MaliciousReport,
               majority::RuleMessage, std::any>
      v_;
};

}  // namespace kgrid::sim
