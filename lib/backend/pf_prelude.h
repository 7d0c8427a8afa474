#include <math.h>
#include <stdint.h>

static inline double pf_pow2(double x) { return x * x; }
static inline double pf_pow3(double x) { return x * x * x; }
static inline double pf_pow4(double x) { return x * x * x * x; }
static inline double pf_powi(double x, int n) {
  double p = 1.0;
  for (int k = 0; k < n; ++k) p *= x;
  return p;
}
static inline double pf_fmin(double a, double b) { return a != a ? b : b != b ? a : a <= b ? a : b; }
static inline double pf_fmax(double a, double b) { return a != a ? b : b != b ? a : a >= b ? a : b; }
static inline double pf_f64(uint64_t bits) { union { uint64_t u; double d; } v; v.u = bits; return v.d; }
static inline double pf_canon(double x) { return x == x ? x : pf_f64(0x7ff8000000000000ULL); }


/* Philox-4x32-10 keyed on (cell index, time step): stateless fluctuation. */
static inline double pf_philox_sym(int64_t cell, int32_t step, int32_t slot) {
  uint32_t c0 = (uint32_t)cell, c1 = (uint32_t)(cell >> 32);
  uint32_t c2 = (uint32_t)step, c3 = (uint32_t)slot;
  uint32_t k0 = 0x5eedu, k1 = 0xC0FFEEu;
  for (int r = 0; r < 10; ++r) {
    uint64_t p0 = (uint64_t)0xD2511F53u * c0, p1 = (uint64_t)0xCD9E8D57u * c2;
    uint32_t h0 = (uint32_t)(p0 >> 32), l0 = (uint32_t)p0;
    uint32_t h1 = (uint32_t)(p1 >> 32), l1 = (uint32_t)p1;
    c0 = h1 ^ c1 ^ k0; c1 = l1; c2 = h0 ^ c3 ^ k1; c3 = l0;
    k0 += 0x9E3779B9u; k1 += 0xBB67AE85u;
  }
  uint64_t bits = ((uint64_t)c0 << 21) | ((uint64_t)c1 >> 11);
  return 2.0 * ((double)bits / 9007199254740992.0) - 1.0;
}
