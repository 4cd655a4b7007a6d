#include <cstdint>
namespace trident {
bool parseDecimal(const char *Text, uint64_t Min, uint64_t Max, uint64_t &Out);
// Mentioning strtoull( or atoi( in a comment is fine, and so is a string:
const char *Why = "strtoull(x, nullptr, 0) reads hex";
uint64_t budget(const char *Text) {
  uint64_t V = 0;
  return parseDecimal(Text, 1, 1000, V) ? V : 0;
}
} // namespace trident
