//===- Knobs.cpp ----------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "support/Knobs.h"

#include "support/Check.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace trident;

bool trident::parseDecimal(std::string_view Text, uint64_t Min, uint64_t Max,
                           uint64_t &Out) {
  uint64_t V = 0;
  for (char C : Text) {
    unsigned Digit = static_cast<unsigned char>(C) - unsigned('0');
    if (Digit > 9 || Digit > Max || V > (Max - Digit) / 10)
      return false;
    V = V * 10 + Digit;
  }
  if (Text.empty() || V < Min)
    return false;
  Out = V;
  return true;
}

std::string trident::decimalError(std::string_view What,
                                  std::string_view Text, uint64_t Min,
                                  uint64_t Max) {
  return std::string(What) + " expects a decimal integer in [" +
         std::to_string(Min) + ", " + std::to_string(Max) + "], got '" +
         std::string(Text) + "'";
}

uint64_t trident::decimalOrExit(std::string_view What, std::string_view Text,
                                uint64_t Min, uint64_t Max) {
  uint64_t V = 0;
  if (!parseDecimal(Text, Min, Max, V)) {
    std::fprintf(stderr, "error: %s\n",
                 decimalError(What, Text, Min, Max).c_str());
    std::exit(2);
  }
  return V;
}

uint64_t trident::envDecimal(const char *Name, uint64_t Default, uint64_t Min,
                             uint64_t Max) {
  const char *E = std::getenv(Name);
  return E && *E ? decimalOrExit(Name, E, Min, Max) : Default;
}

bool trident::parseKnobs(std::string_view Spec, KnobTable Table, void *Config,
                         std::string *Error) {
  auto Fail = [&](std::string Msg) {
    if (Error)
      *Error = std::move(Msg);
    return false;
  };
  size_t Pos = Spec.find(':');
  if (Pos == std::string_view::npos)
    return true;
  std::vector<bool> Seen(Table.size());
  for (std::string_view Rest = Spec.substr(Pos + 1);;) {
    size_t Comma = std::min(Rest.find(','), Rest.size());
    std::string_view Item = Rest.substr(0, Comma);
    size_t Eq = Item.find('=');
    if (Eq == 0 || Eq == std::string_view::npos)
      return Fail("malformed knob '" + std::string(Item) +
                  "' (want knob=value)");
    std::string Name(Item.substr(0, Eq));
    size_t I = 0;
    while (I < Table.size() && Name != Table[I].Name)
      ++I;
    if (I == Table.size())
      return Fail("unknown knob '" + Name + "' (knobs: " + knobHelp(Table) +
                  ")");
    if (Seen[I])
      return Fail("duplicate knob '" + Name + "'");
    Seen[I] = true;
    const Knob &K = Table[I];
    uint64_t V = 0;
    if (!parseDecimal(Item.substr(Eq + 1), K.Min, K.Max, V))
      return Fail(decimalError("knob '" + Name + "'", Item.substr(Eq + 1),
                               K.Min, K.Max));
    K.Set(Config, V);
    TRIDENT_CHECK(K.Get(Config) == V, "knob '%s' range [%llu, %llu] does "
                  "not fit its field", K.Name, (unsigned long long)K.Min,
                  (unsigned long long)K.Max);
    if (Comma == Rest.size())
      return true;
    Rest.remove_prefix(Comma + 1);
  }
}

std::string trident::knobText(KnobTable Table, const void *Config,
                              const void *Defaults) {
  std::string Out;
  for (const Knob &K : Table) {
    if (K.Get(Config) == K.Get(Defaults))
      continue;
    if (!Out.empty())
      Out += ',';
    Out += K.Name;
    Out += '=';
    Out += std::to_string(K.Get(Config));
  }
  return Out;
}

std::string trident::knobHelp(KnobTable Table, size_t Indent, size_t Width) {
  std::string Out;
  size_t LineStart = 0; // where the current line's text begins in Out
  for (const Knob &K : Table) {
    const std::string Item = std::string(K.Name) + "=" +
                             std::to_string(K.Min) + ".." +
                             std::to_string(K.Max);
    if (!Out.empty()) {
      // ", " before the item, and room for the ',' a later wrap appends.
      const bool Wrap =
          Width && Indent + Out.size() - LineStart + 3 + Item.size() > Width;
      Out += Wrap ? ",\n" + std::string(Indent, ' ') : ", ";
      if (Wrap)
        LineStart = Out.size();
    }
    Out += Item;
  }
  return Table.empty() ? "none" : Out;
}
