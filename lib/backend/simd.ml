(** Explicit SIMD vectorization for the C backend (paper §3.5).

    The pipeline guarantees independent loop iterations with no conditionals
    (piecewise terms are [Select]s, mapped to compare+blend), so the inner
    loop advances by the vector width with intrinsics.  Every access is an
    unaligned load or store under the iteration's lane mask [_m]: all lanes
    in the body of the line, the live ones in its last, partial iteration.
    So one vector body covers any extent — the remainder is neither a scalar
    copy of the body nor an overlapping last vector, which an in-place
    kernel (the projection updates [phi_dst]) could not tolerate.

    The vector operations replay {!Cexpr}'s evaluation contract lane by
    lane: sums and products associate the same way, powers are the same
    multiply chain, [fmin]/[fmax] are compare-and-blend helpers exact on NaN
    and signed zero, transcendental functions call scalar libm once per
    lane, a coordinate along the vectorized axis is each lane's own, and a
    store writes a NaN as the canonical one.
    Expensive operations marked for approximate evaluation map to
    [rsqrt14]-style instructions on AVX512.

    Kernels containing Philox fluctuation calls, and lowerings whose
    innermost loop is not the unit-stride axis 0, use the scalar backend. *)

open Symbolic
open Field

type isa = SSE2 | AVX2 | AVX512

let width = function SSE2 -> 2 | AVX2 -> 4 | AVX512 -> 8
let vtype = function SSE2 -> "__m128d" | AVX2 -> "__m256d" | AVX512 -> "__m512d"
let prefix = function SSE2 -> "_mm" | AVX2 -> "_mm256" | AVX512 -> "_mm512"
let isa_name = function SSE2 -> "SSE2" | AVX2 -> "AVX2" | AVX512 -> "AVX512"
let mask_type = function SSE2 -> "int64_t" | AVX2 -> "__m256i" | AVX512 -> "__mmask8"

let op isa name args = Printf.sprintf "%s_%s(%s)" (prefix isa) name (String.concat ", " args)

let set1 isa x = op isa "set1_pd" [ x ]

(* Name of a prelude helper of the ISA: [pf_v8_fmin] etc. *)
let helper isa name = Printf.sprintf "pf_v%d_%s" (width isa) name

let call isa name args = Printf.sprintf "%s(%s)" (helper isa name) (String.concat ", " args)

(** Whether the kernel is printed with vector intrinsics: no Philox call,
    and the innermost loop runs along the unit-stride axis 0. *)
let vectorizes (lowered : Ir.Lower.t) =
  let order = lowered.Ir.Lower.loop_order in
  (not (Ccode.kernel_uses_rand lowered.Ir.Lower.kernel)) && order.(Array.length order - 1) = 0

let load isa p =
  match isa with
  | AVX512 -> Printf.sprintf "_mm512_maskz_loadu_pd(_m, %s)" p
  | AVX2 -> Printf.sprintf "_mm256_maskload_pd(%s, _m)" p
  | SSE2 -> Printf.sprintf "pf_v2_load(%s, _m)" p

let store isa p v =
  match isa with
  | AVX512 -> Printf.sprintf "_mm512_mask_storeu_pd(%s, _m, %s)" p v
  | AVX2 -> Printf.sprintf "_mm256_maskstore_pd(%s, _m, %s)" p v
  | SSE2 -> Printf.sprintf "pf_v2_store(%s, _m, %s)" p v

let field_ptr (a : Fieldspec.access) =
  Printf.sprintf "&%s[%s]" (Cexpr.ident a.Fieldspec.field.Fieldspec.name) (Cexpr.access_index a)

(* [vec_sym] tells which symbols are vector-valued temporaries of the inner
   loop body; everything else (parameters, hoisted loop invariants) is a
   scalar that gets broadcast.  [inner] is the vectorized axis. *)
let rec emit isa ~approx ~vec_sym ~inner (e : Expr.t) =
  let go = emit isa ~approx ~vec_sym ~inner in
  let fold name seed xs = List.fold_left (fun acc x -> op isa name [ acc; go x ]) seed xs in
  match e with
  | Expr.Num x -> set1 isa (Cexpr.float_lit x)
  | Expr.Sym s -> if vec_sym s then Cexpr.ident s else set1 isa (Cexpr.ident s)
  | Expr.Coord d when d = inner ->
    op isa "mul_pd"
      [
        op isa "add_pd" [ call isa "lanes" [ Printf.sprintf "_i%d + _off_%d" d d ]; set1 isa "0.5" ];
        set1 isa "dx";
      ]
  | Expr.Coord d -> set1 isa ("(" ^ Cexpr.coord_ref d ^ ")")
  | Expr.Access a -> load isa (field_ptr a)
  | Expr.Rand _ -> invalid_arg "Simd.emit: Philox kernels use the scalar backend"
  | Expr.Diff _ -> invalid_arg "Simd.emit: Diff survived discretization"
  | Expr.Add ([ x; _ ] as xs) | Expr.Add ([ x; _; _ ] as xs) -> fold "add_pd" (go x) (List.tl xs)
  | Expr.Add xs -> fold "add_pd" (set1 isa "0.0") xs
  | Expr.Mul [] -> set1 isa "1.0"
  | Expr.Mul (x :: rest) -> fold "mul_pd" (go x) rest
  | Expr.Pow (b, n) -> (
    let base = go b in
    let chain m =
      if m >= 2 && m <= 4 then call isa (Printf.sprintf "pow%d" m) [ base ]
      else call isa "powi" [ base; string_of_int m ]
    in
    match n with
    | -1 -> op isa "div_pd" [ set1 isa "1.0"; base ]
    | n when n < 0 -> op isa "div_pd" [ set1 isa "1.0"; chain (-n) ]
    | n -> chain n)
  | Expr.Fun (f, xs) -> (
    let args = List.map go xs in
    match (f, args) with
    | Expr.Sqrt, [ x ] -> op isa "sqrt_pd" [ x ]
    | Expr.Rsqrt, [ x ] ->
      if approx.Cexpr.fast_rsqrt && isa = AVX512 then op isa "rsqrt14_pd" [ x ]
      else op isa "div_pd" [ set1 isa "1.0"; op isa "sqrt_pd" [ x ] ]
    | Expr.Exp, [ x ] -> call isa "exp" [ x ]
    | Expr.Log, [ x ] -> call isa "log" [ x ]
    | Expr.Sin, [ x ] -> call isa "sin" [ x ]
    | Expr.Cos, [ x ] -> call isa "cos" [ x ]
    | Expr.Tanh, [ x ] -> call isa "tanh" [ x ]
    | Expr.Fabs, [ x ] ->
      if isa = AVX512 then op isa "abs_pd" [ x ]
      else op isa "andnot_pd" [ set1 isa "-0.0"; x ] (* clear the sign bit *)
    | Expr.Fmin, [ a; b ] -> call isa "fmin" [ a; b ]
    | Expr.Fmax, [ a; b ] -> call isa "fmax" [ a; b ]
    | _ -> invalid_arg "Simd.emit: bad function arity")
  | Expr.Select (c, t, f) -> (
    let (a, b), cmp, sse =
      match c with
      | Expr.Lt (a, b) -> ((a, b), "_CMP_LT_OQ", "cmplt_pd")
      | Expr.Le (a, b) -> ((a, b), "_CMP_LE_OQ", "cmple_pd")
    in
    let va = go a and vb = go b and vt = go t and vf = go f in
    match isa with
    | AVX512 ->
      Printf.sprintf "_mm512_mask_blend_pd(_mm512_cmp_pd_mask(%s, %s, %s), %s, %s)" va vb cmp
        vf vt
    | AVX2 -> Printf.sprintf "_mm256_blendv_pd(%s, %s, _mm256_cmp_pd(%s, %s, %s))" vf vt va vb cmp
    | SSE2 -> call isa "blend" [ op isa sse [ va; vb ]; vt; vf ])

let emit_assignment isa ~approx ~vec_sym ~inner buf ~indent (a : Assignment.t) =
  let pad = String.make indent ' ' in
  let rhs = emit isa ~approx ~vec_sym ~inner a.rhs in
  match a.lhs with
  | Assignment.Temp s ->
    Buffer.add_string buf
      (Printf.sprintf "%sconst %s %s = %s;\n" pad (vtype isa) (Cexpr.ident s) rhs)
  | Assignment.Store acc ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s;\n" pad (store isa (field_ptr acc) (call isa "canon" [ rhs ])))

(** Emit a vectorized kernel function: identical structure to the scalar
    backend, but the innermost loop advances by the vector width under a
    lane mask.  Falls back to {!Ccode.emit} where {!vectorizes} does not
    hold. *)
let emit_kernel ?(isa = AVX512) ?(approx = Cexpr.exact) ?(openmp = true) ?static ?name
    (lowered : Ir.Lower.t) =
  if not (vectorizes lowered) then Ccode.emit ~approx ~openmp ?static ?name lowered
  else begin
    let dim = lowered.Ir.Lower.kernel.Ir.Kernel.dim in
    let w = width isa in
    let vec_temps =
      List.filter_map
        (fun (a : Assignment.t) ->
          match a.lhs with Assignment.Temp s -> Some s | Assignment.Store _ -> None)
        lowered.Ir.Lower.body
    in
    let vec_sym s = List.mem s vec_temps in
    let innermost buf ~indent inner =
      let pad = String.make indent ' ' and bpad = String.make (indent + 2) ' ' in
      let v = Ccode.loop_var inner in
      Buffer.add_string buf
        (Printf.sprintf "%sfor (int64_t %s = _lo%d; %s < _end%d; %s += %d) {\n" pad v inner v
           inner v w);
      Buffer.add_string buf
        (Printf.sprintf "%sconst %s _m = %s(_end%d - %s);\n" bpad (mask_type isa)
           (helper isa "mask") inner v);
      Buffer.add_string buf (bpad ^ Ccode.base_index ~dim ^ "\n");
      List.iter
        (emit_assignment isa ~approx ~vec_sym ~inner buf ~indent:(indent + 2))
        lowered.Ir.Lower.body;
      Buffer.add_string buf (pad ^ "}\n")
    in
    let head =
      Printf.sprintf "/* %s, %d-wide */\n%s" (isa_name isa) w
        (Ccode.signature ?static ?name lowered)
    in
    Ccode.nest ~approx ~openmp ~head lowered ~innermost
  end

let includes = function
  | SSE2 -> "#include <emmintrin.h>\n"
  | AVX2 | AVX512 -> "#include <immintrin.h>\n"

(** The ISA's vector helpers: lane mask, per-lane coordinates, powers,
    NaN- and signed-zero-exact min/max, per-lane libm calls, and SSE2's
    masked load/store and blend.  Needs {!includes} and {!Cexpr.prelude}
    before it. *)
let prelude isa =
  let w = width isa and v = vtype isa and p = prefix isa in
  let h = helper isa in
  let mul a b = Printf.sprintf "%s_mul_pd(%s, %s)" p a b in
  let nan = Printf.sprintf "%s_set1_pd(pf_f64(0x%LxULL))" p (Int64.bits_of_float Expr.canonical_nan) in
  let mask, minmax, canon, extra =
    match isa with
    | AVX512 ->
      ( "n >= 8 ? (__mmask8)0xFF : (__mmask8)((1u << n) - 1u)",
        (fun cmp ->
          Printf.sprintf
            "const __mmask8 m = _mm512_cmp_pd_mask(a, b, %s) | (_mm512_cmp_pd_mask(a, a, \
             _CMP_ORD_Q) & _mm512_cmp_pd_mask(b, b, _CMP_UNORD_Q));\n\
            \  return _mm512_mask_blend_pd(m, b, a);"
            cmp),
        "_mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, x, _CMP_UNORD_Q), x, " ^ nan ^ ")",
        "" )
    | AVX2 ->
      ( "_mm256_cmpgt_epi64(_mm256_set1_epi64x(n), _mm256_setr_epi64x(0, 1, 2, 3))",
        (fun cmp ->
          Printf.sprintf
            "const __m256d m = _mm256_or_pd(_mm256_cmp_pd(a, b, %s), \
             _mm256_and_pd(_mm256_cmp_pd(a, a, _CMP_ORD_Q), _mm256_cmp_pd(b, b, \
             _CMP_UNORD_Q)));\n\
            \  return _mm256_blendv_pd(b, a, m);"
            cmp),
        "_mm256_blendv_pd(x, " ^ nan ^ ", _mm256_cmp_pd(x, x, _CMP_UNORD_Q))",
        "" )
    | SSE2 ->
      ( "n",
        (fun cmp ->
          Printf.sprintf
            "const __m128d m = _mm_or_pd(%s, _mm_and_pd(_mm_cmpord_pd(a, a), \
             _mm_cmpunord_pd(b, b)));\n\
            \  return pf_v2_blend(m, a, b);"
            (if cmp = "_CMP_LE_OQ" then "_mm_cmple_pd(a, b)" else "_mm_cmpge_pd(a, b)")),
        "pf_v2_blend(_mm_cmpunord_pd(x, x), " ^ nan ^ ", x)",
        {|static inline __m128d pf_v2_load(const double *p, int64_t n) { return n >= 2 ? _mm_loadu_pd(p) : _mm_load_sd(p); }
static inline void pf_v2_store(double *p, int64_t n, __m128d x) { if (n >= 2) _mm_storeu_pd(p, x); else _mm_store_sd(p, x); }
static inline __m128d pf_v2_blend(__m128d m, __m128d t, __m128d f) { return _mm_or_pd(_mm_and_pd(m, t), _mm_andnot_pd(m, f)); }
|}
      )
  in
  let lanes =
    String.concat ", "
      (List.init w (fun k -> if k = 0 then "(double)g" else Printf.sprintf "(double)(g + %d)" k))
  in
  let lanewise f =
    Printf.sprintf
      "static inline %s %s(%s x) {\n\
      \  double a[%d];\n\
      \  %s_storeu_pd(a, x);\n\
      \  for (int k = 0; k < %d; ++k) a[k] = %s(a[k]);\n\
      \  return %s_loadu_pd(a);\n\
       }\n"
      v (h f) v w p w f p
  in
  String.concat ""
    ([
       extra;
       Printf.sprintf "static inline %s %s(int64_t n) { return %s; }\n" (mask_type isa)
         (h "mask") mask;
       Printf.sprintf "static inline %s %s(int64_t g) { return %s_setr_pd(%s); }\n" v
         (h "lanes") p lanes;
       Printf.sprintf "static inline %s %s(%s x) { return %s; }\n" v (h "pow2") v (mul "x" "x");
       Printf.sprintf "static inline %s %s(%s x) { return %s; }\n" v (h "pow3") v
         (mul (mul "x" "x") "x");
       Printf.sprintf "static inline %s %s(%s x) { return %s; }\n" v (h "pow4") v
         (mul (mul (mul "x" "x") "x") "x");
       Printf.sprintf
         "static inline %s %s(%s x, int n) {\n\
         \  %s p = %s_set1_pd(1.0);\n\
         \  for (int k = 0; k < n; ++k) p = %s;\n\
         \  return p;\n\
          }\n"
         v (h "powi") v v p (mul "p" "x");
       Printf.sprintf "static inline %s %s(%s x) { return %s; }\n" v (h "canon") v canon;
       Printf.sprintf "static inline %s %s(%s a, %s b) {\n  %s\n}\n" v (h "fmin") v v
         (minmax "_CMP_LE_OQ");
       Printf.sprintf "static inline %s %s(%s a, %s b) {\n  %s\n}\n" v (h "fmax") v v
         (minmax "_CMP_GE_OQ");
     ]
    @ List.map lanewise [ "exp"; "log"; "sin"; "cos"; "tanh" ])

let translation_unit ?(isa = AVX512) ?approx ?openmp lowered_kernels =
  includes isa ^ Cexpr.prelude ^ prelude isa ^ "\n"
  ^ String.concat "\n" (List.map (emit_kernel ~isa ?approx ?openmp) lowered_kernels)
