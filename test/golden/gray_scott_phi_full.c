void phi_full(double * restrict phi_src, double * restrict phi_dst, int64_t _lo0, int64_t _end0, int64_t _lo1, int64_t _end1, int64_t _s1, int64_t _cs, int64_t _off_0, int64_t _off_1, int32_t _step) {
  #pragma omp parallel for schedule(static)
  for (int64_t _i1 = _lo1; _i1 < _end1; ++_i1) {
    for (int64_t _i0 = _lo0; _i0 < _end0; ++_i0) {
      const int64_t _b = _i0 + _i1*_s1;
      const double xi_0 = pf_pow2(phi_src[_b + 1*_cs]);
      phi_dst[_b] = pf_canon((0.0 + 0.035000000000000003 + (0.16*phi_src[_b - 1]) + (0.16*phi_src[_b - 1*_s1]) + (0.32499999999999996*phi_src[_b]) + (0.16*phi_src[_b + 1*_s1]) + (0.16*phi_src[_b + 1]) + (-1.0*xi_0*phi_src[_b])));
      phi_dst[_b + 1*_cs] = pf_canon((0.0 + (0.080000000000000002*phi_src[_b - 1 + 1*_cs]) + (0.080000000000000002*phi_src[_b - 1*_s1 + 1*_cs]) + (0.58000000000000007*phi_src[_b + 1*_cs]) + (0.080000000000000002*phi_src[_b + 1*_s1 + 1*_cs]) + (0.080000000000000002*phi_src[_b + 1 + 1*_cs]) + (xi_0*phi_src[_b])));
    }
  }
}
