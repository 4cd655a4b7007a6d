//===- Knobs.h - The one knob grammar --------------------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every spec string the simulator takes (`--hwpf name:k=v,...`,
/// `--selector policy:k=v,...`, `fuzz@SEED:k=v,...`) and every numeric
/// flag, fault-plan number and environment knob is read here, so there is
/// one grammar:
///
///   value := digit+                     decimal only: no sign, base
///                                       prefix, blanks or suffix;
///                                       overflow- and range-checked
///   spec  := head [':' knob=value (',' knob=value)*]
///                                       no empty, unknown or repeated
///                                       knobs
///
/// A config struct declares its knobs once, as a table of Knob rows (name,
/// inclusive range, field). Parsing, range checks, the canonical text and
/// the help listings are all derived from that table (the Pythia idea: a
/// prefetcher is fully described by its knobs).
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SUPPORT_KNOBS_H
#define TRIDENT_SUPPORT_KNOBS_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace trident {

/// Reads \p Text as a decimal integer in [\p Min, \p Max] into \p Out:
/// one or more digits and nothing else. Returns false (leaving \p Out
/// alone) on anything else, including overflow. The one place decimal
/// text becomes a number.
bool parseDecimal(std::string_view Text, uint64_t Min, uint64_t Max,
                  uint64_t &Out);

/// The one-line complaint for a value outside the grammar:
/// "WHAT expects a decimal integer in [MIN, MAX], got 'TEXT'".
std::string decimalError(std::string_view What, std::string_view Text,
                         uint64_t Min, uint64_t Max);

/// parseDecimal for a command-line or environment value: on failure prints
/// "error: " + decimalError(...) to stderr and exits with status 2.
uint64_t decimalOrExit(std::string_view What, std::string_view Text,
                       uint64_t Min, uint64_t Max);

/// Environment knob \p Name read with decimalOrExit; \p Default when the
/// variable is unset or empty.
uint64_t envDecimal(const char *Name, uint64_t Default, uint64_t Min,
                    uint64_t Max);

/// One knob of a config struct: its spec name, inclusive range, and the
/// field it reads and writes. Build rows with knob<&Config::Field>(...),
/// which type-checks the field; a table is an array of rows for one
/// config type.
struct Knob {
  const char *Name;
  uint64_t Min;
  uint64_t Max;
  uint64_t (*Get)(const void *Config);
  void (*Set)(void *Config, uint64_t Value);
};

using KnobTable = std::span<const Knob>;

namespace detail {
template <class T> struct KnobField;
template <class C, class F> struct KnobField<F C::*> {
  using Config = C;
  using Type = F;
};
} // namespace detail

/// The row for member \p Field (an integer or bool field of some config).
template <auto Field>
constexpr Knob knob(const char *Name, uint64_t Min, uint64_t Max) {
  using C = typename detail::KnobField<decltype(Field)>::Config;
  using F = typename detail::KnobField<decltype(Field)>::Type;
  return {Name, Min, Max,
          [](const void *Cfg) {
            return static_cast<uint64_t>(static_cast<const C *>(Cfg)->*Field);
          },
          [](void *Cfg, uint64_t V) {
            static_cast<C *>(Cfg)->*Field = static_cast<F>(V);
          }};
}

/// Sets the knobs listed after the first ':' of \p Spec
/// ("head[:k=v,...]") on \p Config, a struct of the table's type; a spec
/// without ':' sets none. An empty, malformed, unknown, repeated or
/// out-of-range knob returns false with a one-line \p Error naming it
/// (and its range, when it has one).
bool parseKnobs(std::string_view Spec, KnobTable Table, void *Config,
                std::string *Error);

/// The canonical knob list: "k=v,..." for every knob whose value in
/// \p Config differs from \p Defaults, in table order ("" when none).
std::string knobText(KnobTable Table, const void *Config,
                     const void *Defaults);

/// "name=min..max, ..." for --help and list output ("none" for an empty
/// table). With \p Width, lines break before that column and continue
/// indented to \p Indent, the column the text starts at.
std::string knobHelp(KnobTable Table, size_t Indent = 0, size_t Width = 0);

} // namespace trident

#endif // TRIDENT_SUPPORT_KNOBS_H
