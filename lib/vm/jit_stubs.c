/* The fixed C side of the JIT's fast tier (see jit.ml and jit_cc.ml):
   report the host's SIMD extensions, load a gcc-built shared object and
   resolve its entries, and call one entry per tile.

   The tile call is [@@noalloc]: it neither allocates nor polls, so no
   collection can move the OCaml float arrays whose addresses it hands to
   the kernel — minor-heap buffers included — while the kernel runs.
   Loaded objects are never closed. */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdint.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

typedef void (*pf_entry)(double *const *, const double *, const int64_t *);

/* Bit 0: SSE2, bit 1: AVX2, bit 2: AVX-512F. */
CAMLprim value pfgen_jit_isas(value unit)
{
  int bits = 0;
  (void)unit;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse2")) bits |= 1;
  if (__builtin_cpu_supports("avx2")) bits |= 2;
  if (__builtin_cpu_supports("avx512f")) bits |= 4;
#endif
  return Val_int(bits);
}

CAMLprim value pfgen_jit_dlopen(value path)
{
  CAMLparam1(path);
  void *handle = dlopen(String_val(path), RTLD_NOW | RTLD_LOCAL);
  if (handle == NULL) {
    const char *err = dlerror();
    caml_failwith(err != NULL ? err : "dlopen failed");
  }
  CAMLreturn(caml_copy_nativeint((intnat)handle));
}

CAMLprim value pfgen_jit_dlsym(value handle, value name)
{
  CAMLparam2(handle, name);
  void *sym = dlsym((void *)Nativeint_val(handle), String_val(name));
  if (sym == NULL) caml_failwith("dlsym: entry not found");
  CAMLreturn(caml_copy_nativeint((intnat)sym));
}

/* [fields] is a float array array, [params] a float array, [ints] an int
   array; the entry receives their contents as double*, double and
   int64_t tables. */
CAMLprim value pfgen_jit_run(value entry, value fields, value params, value ints)
{
  mlsize_t nf = Wosize_val(fields), na = Wosize_val(ints);
  double *f[nf > 0 ? nf : 1];
  int64_t a[na > 0 ? na : 1];
  for (mlsize_t i = 0; i < nf; i++) f[i] = (double *)Field(fields, i);
  for (mlsize_t i = 0; i < na; i++) a[i] = Long_val(Field(ints, i));
  ((pf_entry)Nativeint_val(entry))(f, (const double *)params, a);
  return Val_unit;
}
