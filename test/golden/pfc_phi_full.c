void phi_full(double * restrict phi_src, double * restrict phi_dst, int64_t _lo0, int64_t _end0, int64_t _lo1, int64_t _end1, int64_t _s1, int64_t _cs, int64_t _off_0, int64_t _off_1, int32_t _step) {
  #pragma omp parallel for schedule(static)
  for (int64_t _i1 = _lo1; _i1 < _end1; ++_i1) {
    for (int64_t _i0 = _lo0; _i0 < _end0; ++_i0) {
      const int64_t _b = _i0 + _i1*_s1;
      phi_dst[_b] = pf_canon((0.0 + (-0.02*phi_src[_b - 2]) + (-0.040000000000000001*phi_src[_b - 1 - 1*_s1]) + (0.12*phi_src[_b - 1]) + (-0.040000000000000001*phi_src[_b - 1 + 1*_s1]) + (-0.02*phi_src[_b - 2*_s1]) + (0.12*phi_src[_b - 1*_s1]) + (0.745*phi_src[_b]) + (0.12*phi_src[_b + 1*_s1]) + (-0.02*phi_src[_b + 2*_s1]) + (-0.040000000000000001*phi_src[_b + 1 - 1*_s1]) + (0.12*phi_src[_b + 1]) + (-0.040000000000000001*phi_src[_b + 1 + 1*_s1]) + (-0.02*phi_src[_b + 2]) + (-0.02*pf_pow3(phi_src[_b]))));
    }
  }
}
