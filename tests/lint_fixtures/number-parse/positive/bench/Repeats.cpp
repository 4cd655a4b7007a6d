#include <cstdlib>
#include <string>
// "abc" silently becomes zero.
int repeats(const char *Text) { return atoi(Text); }
long jobs(const std::string &Text) { return std::stol(Text); }
