#include <cstdint>
#include <cstdlib>
namespace trident {
// The one reader may use whatever it likes.
uint64_t parseDecimal(const char *Text) { return std::strtoull(Text, nullptr, 10); }
} // namespace trident
