// csg-lint fixture: exact-pow2 must flag every ldexp call below.
// In src/core and src/combination a power-of-two scale is written as
// x * exact_pow2(e): bit-identical to ldexp, without the library call.
#include <cmath>

double bad_coordinate(unsigned long i, unsigned l) {
  return std::ldexp(static_cast<double>(i), -static_cast<int>(l + 1));  // BAD
}

double bad_unqualified(double x, int e) {
  using std::ldexp;
  return ldexp(x, e);  // BAD: unqualified call
}

// GOOD: a comment or string naming ldexp( is not a call.
const char* kNote = "ldexp(x, e)";
