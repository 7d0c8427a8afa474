/* The interpreter's fixed C side (see Engine's "VM programs"): one
   [@@noalloc] call sweeps one tile of a kernel's instruction array.

   A tile's cells are gathered, in sweep order, into batches of up to
   VM_WIDTH independent cells — whole innermost rows across every loop
   at or below the program's batch depth, a row longer than VM_WIDTH in
   pieces — and each instruction computes its node for the whole batch
   into a vector of the lane's arena; a shallower loop first runs the
   batch it has gathered, then its hoisted group as a one-cell batch.

   Each lane performs the evaluation contract's scalar operation
   (Backend.Cexpr, pf_prelude.h): left-associated two- and three-term
   sums and products, longer ones folded from 0.0 and 1.0, integer powers
   as the multiply chain, fmin/fmax exact on NaN and signed zeros, both
   Select arms computed, libm called once per lane, NaN stored as the
   canonical NaN.  This file is built with -ffp-contract=off and without
   fast-math, so the vectorized loops round every operation on its own,
   and writes the bits Symbolic.Eval and the JIT's programs write.

   The operations are compiled three times: for AVX-512, AVX2 and the
   baseline ISA; the program's header names the one to run, and a CPU
   without that extension runs the baseline.

   The call is [@@noalloc]: it neither allocates nor polls, so no
   collection can move the OCaml arrays whose contents it reads and
   writes while it runs. */

#include <stdint.h>
#include <caml/mlvalues.h>

#include "pf_prelude.h"

#define VM_WIDTH 64

/* Opcodes and operands (Engine's [op_*] constants mirror them; t is the
   vector an instruction writes, a..y the vectors it reads, all arena
   offsets; an access is a field-table slot, a storage component and one
   cell offset per axis, as Backend.Cexpr.access_index prints it). */
enum {
  OP_GATHER,  /* t slot comp o_0 .. o_dim-1 */
  OP_STORE,   /* a slot comp o_0 .. o_dim-1 */
  OP_CONST,   /* t k: constant k of the program */
  OP_PARAM,   /* t p: parameter p (p = np: dx) */
  OP_UNIFORM, /* t u: lane 0 of vector u (a hoisted temporary) */
  OP_COPY,    /* t a */
  OP_ADD2,    /* t a b */
  OP_MUL2,
  OP_ADD3,    /* t a b c */
  OP_MUL3,
  OP_SUM,     /* t k a_1 .. a_k: 0.0 + a_1 + .. + a_k */
  OP_PROD,    /* t k a_1 .. a_k: 1.0 * a_1 * .. * a_k */
  OP_POW,     /* t a n */
  OP_SQRT,    /* t a */
  OP_RSQRT,
  OP_EXP,
  OP_LOG,
  OP_SIN,
  OP_COS,
  OP_TANH,
  OP_FABS,
  OP_MIN,     /* t a b */
  OP_MAX,
  OP_SELLT,   /* t p q x y: p < q ? x : y */
  OP_SELLE,   /* t p q x y: p <= q ? x : y */
  OP_COORD,   /* t d */
  OP_RAND     /* t slot */
};

/* The program header: dim, batch depth, np, ISA variant, the loop order
   (axis per depth), then dim + 2 group bounds: group g (the preheader,
   the loops' hoisted groups, the body) spans [bound g, bound g+1). */
enum { H_DIM, H_BATCH_FROM, H_NP, H_VARIANT, H_ORDER };

typedef struct {
  const value *code;
  const double *consts;
  value fields;
  const double *params;
  double *v;
  int dim, np, n;
  int64_t s[3], cs, gd[3];
  int32_t step;
  int64_t idx[VM_WIDTH];     /* each batch cell's linear index */
  int64_t co[3][VM_WIDTH];   /* and its global coordinate per axis */
} vm;

#define OP static inline __attribute__((always_inline))

OP void vm_gather(int n, double *restrict t, const double *restrict f, const int64_t *restrict idx,
                  int64_t e)
{
  for (int i = 0; i < n; i++) t[i] = f[idx[i] + e];
}

OP void vm_store(int n, double *restrict f, const double *restrict a, const int64_t *restrict idx,
                 int64_t e)
{
  for (int i = 0; i < n; i++) f[idx[i] + e] = pf_canon(a[i]);
}

OP void vm_fill(int n, double *restrict t, double x)
{
  for (int i = 0; i < n; i++) t[i] = x;
}

OP void vm_copy(int n, double *restrict t, const double *restrict a)
{
  for (int i = 0; i < n; i++) t[i] = a[i];
}

OP void vm_add2(int n, double *restrict t, const double *restrict a, const double *restrict b)
{
  for (int i = 0; i < n; i++) t[i] = a[i] + b[i];
}

OP void vm_mul2(int n, double *restrict t, const double *restrict a, const double *restrict b)
{
  for (int i = 0; i < n; i++) t[i] = a[i] * b[i];
}

OP void vm_add3(int n, double *restrict t, const double *restrict a, const double *restrict b,
                const double *restrict c)
{
  for (int i = 0; i < n; i++) t[i] = a[i] + b[i] + c[i];
}

OP void vm_mul3(int n, double *restrict t, const double *restrict a, const double *restrict b,
                const double *restrict c)
{
  for (int i = 0; i < n; i++) t[i] = a[i] * b[i] * c[i];
}

OP void vm_acc_add(int n, double *restrict t, const double *restrict a)
{
  for (int i = 0; i < n; i++) t[i] = t[i] + a[i];
}

OP void vm_acc_mul(int n, double *restrict t, const double *restrict a)
{
  for (int i = 0; i < n; i++) t[i] = t[i] * a[i];
}

OP void vm_recip(int n, double *restrict t)
{
  for (int i = 0; i < n; i++) t[i] = 1.0 / t[i];
}

OP void vm_sqrt(int n, double *restrict t, const double *restrict a)
{
  for (int i = 0; i < n; i++) t[i] = sqrt(a[i]);
}

OP void vm_rsqrt(int n, double *restrict t, const double *restrict a)
{
  for (int i = 0; i < n; i++) t[i] = 1.0 / sqrt(a[i]);
}

OP void vm_fabs(int n, double *restrict t, const double *restrict a)
{
  for (int i = 0; i < n; i++) t[i] = fabs(a[i]);
}

OP void vm_libm(int n, double *restrict t, const double *restrict a, double (*f)(double))
{
  for (int i = 0; i < n; i++) t[i] = f(a[i]);
}

OP void vm_min(int n, double *restrict t, const double *restrict a, const double *restrict b)
{
  for (int i = 0; i < n; i++) t[i] = pf_fmin(a[i], b[i]);
}

OP void vm_max(int n, double *restrict t, const double *restrict a, const double *restrict b)
{
  for (int i = 0; i < n; i++) t[i] = pf_fmax(a[i], b[i]);
}

OP void vm_sel_lt(int n, double *restrict t, const double *restrict p, const double *restrict q,
                  const double *restrict x, const double *restrict y)
{
  for (int i = 0; i < n; i++) t[i] = p[i] < q[i] ? x[i] : y[i];
}

OP void vm_sel_le(int n, double *restrict t, const double *restrict p, const double *restrict q,
                  const double *restrict x, const double *restrict y)
{
  for (int i = 0; i < n; i++) t[i] = p[i] <= q[i] ? x[i] : y[i];
}

OP void vm_coord(int n, double *restrict t, const int64_t *restrict co, double dx)
{
  for (int i = 0; i < n; i++) t[i] = ((double)co[i] + 0.5) * dx;
}

/* The cell index Horner-style over the kernel's own axes, as the printed
   kernels and Engine's reference compute it. */
OP void vm_rand(const vm *m, double *restrict t, int32_t slot)
{
  for (int i = 0; i < m->n; i++) {
    int64_t cz = m->dim > 2 ? m->co[2][i] : 0, cy = m->dim > 1 ? m->co[1][i] : 0;
    int64_t gd1 = m->dim > 2 ? m->gd[1] : 0;
    int64_t cell = ((cz * gd1) + cy) * m->gd[0] + m->co[0][i];
    t[i] = pf_philox_sym(cell, m->step, slot);
  }
}

/* The element delta of the access whose slot is at [at]: component slab
   plus cell offsets. */
OP int64_t vm_delta(const vm *m, const value *at)
{
  int64_t e = Long_val(at[1]) * m->cs;
  for (int d = 0; d < m->dim; d++) e += Long_val(at[2 + d]) * m->s[d];
  return e;
}

OP double *vm_field(const vm *m, const value *at)
{
  return (double *)Field(m->fields, Long_val(at[0]));
}

/* Run instructions [pc, end) on the current batch. */
OP void vm_ops(vm *m, long pc, long end)
{
  const value *code = m->code;
  double *v = m->v;
  const int n = m->n;
#define A(k) Long_val(code[pc + (k)])
#define VEC(k) (v + A(k))
  while (pc < end) {
    switch (A(0)) {
    case OP_GATHER:
      vm_gather(n, VEC(1), vm_field(m, code + pc + 2), m->idx, vm_delta(m, code + pc + 2));
      pc += 4 + m->dim;
      break;
    case OP_STORE:
      vm_store(n, vm_field(m, code + pc + 2), VEC(1), m->idx, vm_delta(m, code + pc + 2));
      pc += 4 + m->dim;
      break;
    case OP_CONST: vm_fill(n, VEC(1), m->consts[A(2)]); pc += 3; break;
    case OP_PARAM: vm_fill(n, VEC(1), m->params[A(2)]); pc += 3; break;
    case OP_UNIFORM: vm_fill(n, VEC(1), v[A(2)]); pc += 3; break;
    case OP_COPY: vm_copy(n, VEC(1), VEC(2)); pc += 3; break;
    case OP_ADD2: vm_add2(n, VEC(1), VEC(2), VEC(3)); pc += 4; break;
    case OP_MUL2: vm_mul2(n, VEC(1), VEC(2), VEC(3)); pc += 4; break;
    case OP_ADD3: vm_add3(n, VEC(1), VEC(2), VEC(3), VEC(4)); pc += 5; break;
    case OP_MUL3: vm_mul3(n, VEC(1), VEC(2), VEC(3), VEC(4)); pc += 5; break;
    case OP_SUM:
    case OP_PROD: {
      int add = A(0) == OP_SUM;
      long k = A(2);
      double *t = VEC(1);
      vm_fill(n, t, add ? 0.0 : 1.0);
      for (long j = 0; j < k; j++) {
        if (add) vm_acc_add(n, t, VEC(3 + j));
        else vm_acc_mul(n, t, VEC(3 + j));
      }
      pc += 3 + k;
      break;
    }
    case OP_POW: {
      double *t = VEC(1);
      const double *a = VEC(2);
      long e = A(3), k = e < 0 ? -e : e;
      if (k == 0) vm_fill(n, t, 1.0);
      else vm_copy(n, t, a);
      for (long j = 2; j <= k; j++) vm_acc_mul(n, t, a);
      if (e < 0) vm_recip(n, t);
      pc += 4;
      break;
    }
    case OP_SQRT: vm_sqrt(n, VEC(1), VEC(2)); pc += 3; break;
    case OP_RSQRT: vm_rsqrt(n, VEC(1), VEC(2)); pc += 3; break;
    case OP_EXP: vm_libm(n, VEC(1), VEC(2), exp); pc += 3; break;
    case OP_LOG: vm_libm(n, VEC(1), VEC(2), log); pc += 3; break;
    case OP_SIN: vm_libm(n, VEC(1), VEC(2), sin); pc += 3; break;
    case OP_COS: vm_libm(n, VEC(1), VEC(2), cos); pc += 3; break;
    case OP_TANH: vm_libm(n, VEC(1), VEC(2), tanh); pc += 3; break;
    case OP_FABS: vm_fabs(n, VEC(1), VEC(2)); pc += 3; break;
    case OP_MIN: vm_min(n, VEC(1), VEC(2), VEC(3)); pc += 4; break;
    case OP_MAX: vm_max(n, VEC(1), VEC(2), VEC(3)); pc += 4; break;
    case OP_SELLT: vm_sel_lt(n, VEC(1), VEC(2), VEC(3), VEC(4), VEC(5)); pc += 6; break;
    case OP_SELLE: vm_sel_le(n, VEC(1), VEC(2), VEC(3), VEC(4), VEC(5)); pc += 6; break;
    case OP_COORD: vm_coord(n, VEC(1), m->co[A(2)], m->params[m->np]); pc += 3; break;
    case OP_RAND: vm_rand(m, VEC(1), (int32_t)A(2)); pc += 3; break;
    default: return; /* unreachable: Engine emits only the opcodes above */
    }
  }
#undef A
#undef VEC
}

typedef void (*vm_run_ops)(vm *, long, long);

__attribute__((target("avx512f,prefer-vector-width=512")))
static void vm_ops_avx512(vm *m, long pc, long end) { vm_ops(m, pc, end); }

__attribute__((target("avx2")))
static void vm_ops_avx2(vm *m, long pc, long end) { vm_ops(m, pc, end); }

static void vm_ops_base(vm *m, long pc, long end) { vm_ops(m, pc, end); }

/* The variant of the program's header (2: AVX-512, 1: AVX2, else the
   baseline), where the CPU has it. */
static vm_run_ops vm_variant(long variant)
{
#if defined(__x86_64__) || defined(__i386__)
  if (variant == 2 && __builtin_cpu_supports("avx512f")) return vm_ops_avx512;
  if (variant == 1 && __builtin_cpu_supports("avx2")) return vm_ops_avx2;
#endif
  (void)variant;
  return vm_ops_base;
}

/* The loop nest of one tile. */
typedef struct {
  vm *m;
  vm_run_ops run;
  int inner, batch_from;
  int64_t lo[3], hi[3];  /* per depth, inclusive */
  int order[3];          /* axis per depth */
  int64_t pos[3];        /* per axis, block-local */
  int64_t off[3], ghost;
  int count;
} vm_sweep;

static void vm_group(vm_sweep *w, int g)
{
  const value *bounds = w->m->code + H_ORDER + w->m->dim;
  w->run(w->m, Long_val(bounds[g]), Long_val(bounds[g + 1]));
}

static void vm_flush(vm_sweep *w)
{
  if (w->count > 0) {
    w->m->n = w->count;
    vm_group(w, w->inner + 1);
    w->count = 0;
  }
}

static void vm_row(vm_sweep *w)
{
  vm *m = w->m;
  int fastest = w->order[w->inner];
  int64_t lo = w->lo[w->inner], hi = w->hi[w->inner];
  if (w->count + (hi - lo + 1) > VM_WIDTH) vm_flush(w);
  w->pos[fastest] = lo;
  int64_t at = 0;
  for (int ax = 0; ax < m->dim; ax++) at += (w->pos[ax] + w->ghost) * m->s[ax];
  for (int64_t x = lo; x <= hi; x++) {
    if (w->count == VM_WIDTH) vm_flush(w);
    int i = w->count;
    w->pos[fastest] = x;
    m->idx[i] = at;
    for (int ax = 0; ax < m->dim; ax++) m->co[ax][i] = w->pos[ax] + w->off[ax];
    at += m->s[fastest];
    w->count = i + 1;
  }
}

/* One loop depth (a kernel has at most three). */
static void vm_depth(vm_sweep *w, int d)
{
  if (d >= w->inner || d >= 2) {
    vm_row(w);
    return;
  }
  int ax = w->order[d];
  for (int64_t i = w->lo[d]; i <= w->hi[d]; i++) {
    w->pos[ax] = i;
    if (d < w->batch_from) {
      vm_flush(w);
      w->m->co[ax][0] = i + w->off[ax];
      w->m->n = 1;
      vm_group(w, d + 1);
    }
    vm_depth(w, d + 1);
  }
}

/* [prog] is Engine's [vm_code] record (its instruction array, then its
   constants), [fields] the field table, [params] the parameter values
   then dx, [ints] the tile's table (Backend.Ccode.abi_ints: loop bounds
   per depth, strides, component stride, ghost width, global offset and
   extent, time step), [arena] the lane's vectors. */
CAMLprim value pfgen_vm_run(value prog, value fields, value params, value ints, value arena)
{
  const value *code = (const value *)Op_val(Field(prog, 0));
  const value *a = (const value *)Op_val(ints);
  vm m;
  vm_sweep w;
  int dim = (int)Long_val(code[H_DIM]);
  m.code = code;
  m.consts = (const double *)Field(prog, 1);
  m.fields = fields;
  m.params = (const double *)params;
  m.v = (double *)arena;
  m.dim = dim;
  m.np = (int)Long_val(code[H_NP]);
  m.n = 1;
  for (int ax = 0; ax < dim; ax++) {
    m.s[ax] = Long_val(a[2 * dim + ax]);
    w.off[ax] = Long_val(a[3 * dim + 2 + ax]);
    m.gd[ax] = Long_val(a[4 * dim + 2 + ax]);
    w.pos[ax] = 0;
  }
  m.cs = Long_val(a[3 * dim]);
  m.step = (int32_t)Long_val(a[5 * dim + 2]);
  w.m = &m;
  w.run = vm_variant(Long_val(code[H_VARIANT]));
  w.inner = dim - 1;
  w.batch_from = (int)Long_val(code[H_BATCH_FROM]);
  w.ghost = Long_val(a[3 * dim + 1]);
  w.count = 0;
  for (int d = 0; d < dim; d++) {
    w.lo[d] = Long_val(a[2 * d]);
    w.hi[d] = Long_val(a[2 * d + 1]) - 1;
    w.order[d] = (int)Long_val(code[H_ORDER + d]);
  }
  vm_group(&w, 0);
  vm_depth(&w, 0);
  vm_flush(&w);
  return Val_unit;
}
