#include <cstdlib>
namespace trident {
// Base 0 reads "010" as eight and "0x10" as sixteen; no range check.
unsigned long long budget(const char *Text) {
  return std::strtoull(Text, nullptr, 0);
}
} // namespace trident
