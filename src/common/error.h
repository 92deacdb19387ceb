// Error handling for the indexmac library.
//
// Library-level misuse (bad configuration, malformed programs, illegal
// instructions reaching a simulator) raises SimError; internal invariant
// violations use IMAC_ASSERT which also throws so tests can observe them.
// Both checks are on in every build type.
#pragma once

#include <stdexcept>
#include <string>

namespace indexmac {

/// Exception thrown for all user-visible error conditions in the library.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void raise(const std::string& what) { throw SimError(what); }

namespace detail {

/// The failure path of IMAC_CHECK / IMAC_ASSERT: builds the message, only
/// now, and raises it. Out of line and cold, so a check costs its call site
/// a compare and a not-taken branch, and small functions that check an
/// argument (timing::InOrderPorts::claim) still inline.
template <typename MakeMessage>
[[noreturn, gnu::noinline, gnu::cold]] void raise_built(const MakeMessage& make_message) {
  raise(make_message());
}

}  // namespace detail
}  // namespace indexmac

/// Check a condition that guards against API misuse; throws SimError.
#define IMAC_CHECK(cond, msg)                                                     \
  do {                                                                            \
    if (!(cond)) [[unlikely]]                                                     \
      ::indexmac::detail::raise_built(                                            \
          [&]() -> std::string { return std::string("check failed: ") + msg; }); \
  } while (0)

/// Internal invariant; failure indicates a library bug.
#define IMAC_ASSERT(cond, msg)                                                          \
  do {                                                                                  \
    if (!(cond)) [[unlikely]]                                                           \
      ::indexmac::detail::raise_built(                                                  \
          [&]() -> std::string { return std::string("internal invariant: ") + (msg); }); \
  } while (0)
