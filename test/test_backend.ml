(* Backends: the generated C must (a) compile with a real compiler and
   (b) produce bit-identical results to the VM executing the same IR —
   the end-to-end check that the printed code and the executed code are
   the same artifact.  CUDA and SIMD outputs get structural checks plus a
   host-compiler syntax pass for the vectorized code. *)

open Symbolic

let contains_sub haystack needle = Astring.String.is_infix ~affix:needle haystack

let curv = lazy (Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()))

let have_gcc = lazy (Sys.command "gcc --version > /dev/null 2>&1" = 0)

let with_tmpdir f =
  let dir = Filename.temp_file "pfgen" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_process cmd =
  let ic = Unix.open_process_in cmd in
  let line = try input_line ic with End_of_file -> "" in
  ignore (Unix.close_process_in ic);
  line

(* ------------------------------------------------------------------ *)

(* Every kernel of the six families — φ full/stag/main, μ full/stag/main,
   projection — 2D and 3D where the family has both, renamed per family so
   one translation unit holds them all. *)
let all_families =
  lazy
    (List.concat_map
       (fun (tag, params) ->
         let g = Pfcore.Genkernels.generate params in
         let ks =
           [ g.phi_full; g.phi_split.Pfcore.Genkernels.stag; g.phi_split.Pfcore.Genkernels.main ]
           @ Option.to_list g.mu_full
           @ (match g.mu_split with
             | Some p -> [ p.Pfcore.Genkernels.stag; p.Pfcore.Genkernels.main ]
             | None -> [])
           @ Option.to_list g.projection
         in
         List.map (fun k -> (tag ^ "_" ^ k.Ir.Kernel.name, Ir.Lower.run k)) ks)
       [
         ("curv2", Pfcore.Params.curvature ~dim:2 ());
         ("curv3", Pfcore.Params.curvature ~dim:3 ());
         ("p1", Pfcore.Params.p1 ());
         ("p2", Pfcore.Params.p2 ());
         ("p2_2d", Pfcore.Params.p2 ~dim:2 ());
         ("eut2", Pfcore.Params.eutectic ~dim:2 ());
         ("eut3", Pfcore.Params.eutectic ~dim:3 ());
         ("pfc", Pfcore.Params.pfc ());
         ("gs", Pfcore.Params.gray_scott ());
       ])

(* gcc accepts each unit, the units built side by side: an undeclared
   helper or a libm call the compiler does not provide is an error.  Vector
   units are built to an object, since only inlining an intrinsic outside
   the target reports it.  One exit code per unit. *)
let gcc_builds units =
  with_tmpdir (fun dir ->
      let spawn i (flags, unit_) =
        let src = Printf.sprintf "k%d.c" i and log = Filename.concat dir (Printf.sprintf "k%d.log" i) in
        write_file (Filename.concat dir src) unit_;
        let cmd =
          Printf.sprintf "cd %s && gcc -std=c11 -O0 -Werror=implicit-function-declaration %s %s 2> %s"
            (Filename.quote dir) flags src (Filename.quote log)
        in
        (Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; cmd |] Unix.stdin Unix.stdout Unix.stderr, log)
      in
      List.map
        (fun (pid, log) ->
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED 0 -> 0
          | st ->
            print_string (In_channel.with_open_bin log In_channel.input_all);
            (match st with Unix.WEXITED n -> n | _ -> 255))
        (List.mapi spawn units))

let test_c_compiles () =
  if not (Lazy.force have_gcc) then Alcotest.skip ()
  else begin
    let unit_ =
      Backend.Cexpr.prelude ^ "\n"
      ^ String.concat "\n"
          (List.map
             (fun (name, l) -> Backend.Ccode.emit ~openmp:true ~name l)
             (Lazy.force all_families))
    in
    Alcotest.(check (list int)) "gcc builds every kernel of six families as scalar C" [ 0 ]
      (gcc_builds [ ("-fopenmp -fsyntax-only", unit_) ])
  end

let test_simd_compiles () =
  if not (Lazy.force have_gcc) then Alcotest.skip ()
  else
    let isas = [ (Backend.Simd.AVX2, "-mavx2 -c"); (Backend.Simd.AVX512, "-mavx512f -c") ] in
    let unit_ isa =
      Backend.Simd.includes isa ^ Backend.Cexpr.prelude ^ Backend.Simd.prelude isa ^ "\n"
      ^ String.concat "\n"
          (List.map
             (fun (name, l) -> Backend.Simd.emit_kernel ~isa ~openmp:false ~name l)
             (Lazy.force all_families))
    in
    Alcotest.(check (list int)) "gcc builds every kernel of six families as AVX2 and AVX512 C"
      [ 0; 0 ]
      (gcc_builds (List.map (fun (isa, flags) -> (flags, unit_ isa)) isas))

(* End-to-end: compile the generated curvature φ kernel with gcc, run it on
   the same flat arrays as the VM, compare checksums digit for digit. *)
let test_c_matches_vm () =
  if not (Lazy.force have_gcc) then Alcotest.skip ()
  else begin
    let g = Lazy.force curv in
    let fields = g.Pfcore.Genkernels.fields in
    let dims = [| 8; 6 |] in
    let block =
      Vm.Engine.make_block ~ghost:2 ~dims
        [ fields.Pfcore.Model.phi_src; fields.Pfcore.Model.phi_dst ]
    in
    let src_buf = Vm.Engine.buffer block fields.Pfcore.Model.phi_src in
    let dst_buf = Vm.Engine.buffer block fields.Pfcore.Model.phi_dst in
    let fill i = 0.25 +. (0.2 *. sin (0.37 *. float_of_int i)) in
    Array.iteri (fun i _ -> src_buf.Vm.Buffer.data.(i) <- fill i) src_buf.Vm.Buffer.data;
    let kparams = Ir.Kernel.parameters g.phi_full in
    let bound = Vm.Engine.bind g.phi_full block in
    Vm.Engine.run
      ~params:(("dx", 1.) :: List.map (fun s -> (s, 0.)) kparams)
      bound;
    let vm_sum = ref 0. in
    for x = 0 to dims.(0) - 1 do
      for y = 0 to dims.(1) - 1 do
        for c = 0 to 1 do
          vm_sum := !vm_sum +. Vm.Buffer.get dst_buf ~component:c [| x; y |]
        done
      done
    done;
    (* C side: same layout, pointers advanced to the interior origin *)
    let padded0 = dims.(0) + 4 and padded1 = dims.(1) + 4 in
    let comp_stride = padded0 * padded1 in
    let origin = (2 * padded0) + 2 in
    let main =
      Printf.sprintf
        {|
#include <stdio.h>
#include <stdlib.h>
int main(void) {
  int total = %d;
  double *src = malloc(total * sizeof(double));
  double *dst = malloc(total * sizeof(double));
  for (int i = 0; i < total; ++i) { src[i] = 0.25 + 0.2*sin(0.37*(double)i); dst[i] = 0.0; }
  phi_full(src + %d, dst + %d, %s0, %d, 0, %d, %d, %d, 0, 0, 0);
  double sum = 0.0;
  for (int y = 0; y < %d; ++y)
    for (int x = 0; x < %d; ++x)
      for (int c = 0; c < 2; ++c)
        sum += dst[%d + c*%d + y*%d + x];
  printf("%%.17g\n", sum);
  return 0;
}
|}
        (comp_stride * 2) origin origin
        (String.concat "" (List.map (fun _ -> "0.0, ") kparams))
        dims.(0) dims.(1) padded0 comp_stride dims.(1) dims.(0) origin comp_stride padded0
    in
    let unit_ =
      Backend.Ccode.translation_unit ~openmp:false [ Ir.Lower.run g.phi_full ] ^ main
    in
    with_tmpdir (fun dir ->
        let src_file = Filename.concat dir "e2e.c" in
        let exe = Filename.concat dir "e2e" in
        write_file src_file unit_;
        let rc =
          Sys.command
            (Printf.sprintf "gcc -std=c11 -O2 -o %s %s -lm 2> %s/err.log" (Filename.quote exe)
               (Filename.quote src_file) (Filename.quote dir))
        in
        Alcotest.(check int) "compiles" 0 rc;
        let out = read_process exe in
        let c_sum = float_of_string out in
        Alcotest.(check (float 1e-12)) "C result == VM result" !vm_sum c_sum)
  end

(* ------------------------------------------------------------------ *)

let test_c_signature_and_structure () =
  let g = Lazy.force curv in
  let code = Backend.Ccode.emit (Ir.Lower.run g.phi_full) in
  let contains s = Alcotest.(check bool) s true (contains_sub code s) in
  contains "void phi_full(double * restrict phi_src, double * restrict phi_dst";
  contains "#pragma omp parallel for";
  contains "const int64_t _b"

let test_cuda_structure () =
  let g = Lazy.force curv in
  let code = Backend.Cuda.emit g.phi_full in
  let contains s = Alcotest.(check bool) s true (contains_sub code s) in
  contains "__global__ void phi_full";
  contains "blockIdx.x * blockDim.x + threadIdx.x";
  contains "return;" (* bounds guard *)

let test_cuda_approx_ops () =
  let p = Pfcore.Params.p1 () in
  let g = Pfcore.Genkernels.generate p in
  let approx = { Backend.Cexpr.fast_div = true; fast_rsqrt = true } in
  let code = Backend.Cuda.emit ~approx (Option.get g.mu_full) in
  Alcotest.(check bool) "uses __frsqrt_rn" true (contains_sub code "__frsqrt_rn");
  Alcotest.(check bool) "uses __fdividef" true (contains_sub code "__fdividef")

let test_cuda_fences () =
  let g = Lazy.force curv in
  let code = Backend.Cuda.emit ~fence_stride:4 g.phi_full in
  Alcotest.(check bool) "threadfence present" true
    (contains_sub code "__threadfence_block()")

let test_cuda_launch_config () =
  let s = Backend.Cuda.launch_config Backend.Cuda.default_mapping ~dims:[| 100; 30; 17 |] in
  Alcotest.(check bool) "grid covers domain" true (contains_sub s "dim3 grid(2,15,9)")

let test_simd_structure () =
  let g = Lazy.force curv in
  let code = Backend.Simd.emit_kernel ~isa:Backend.Simd.AVX512 (Ir.Lower.run g.phi_full) in
  let contains s = Alcotest.(check bool) s true (contains_sub code s) in
  contains "_mm512_maskz_loadu_pd(_m, &phi_src[_b]"; (* unaligned, masked loads *)
  contains "_mm512_mask_storeu_pd(&phi_dst[_b]";     (* masked stores *)
  contains "_i0 += 8";                               (* vector-width stride *)
  contains "const __mmask8 _m = pf_v8_mask(_end0 - _i0);"; (* remainder lanes *)
  Alcotest.(check bool) "no aligned access" false (contains_sub code "_mm512_load_pd");
  Alcotest.(check bool) "no scalar tear-down loop" false (contains_sub code "for (; _i0");
  let avx2 = Backend.Simd.emit_kernel ~isa:Backend.Simd.AVX2 (Ir.Lower.run g.phi_full) in
  Alcotest.(check bool) "AVX2 width 4" true (contains_sub avx2 "_i0 += 4")

let test_simd_select_blend () =
  (* a Select in the body must become a blend, not a branch *)
  let f = Fieldspec.scalar ~dim:2 "f" in
  let gfld = Fieldspec.scalar ~dim:2 "g" in
  let body =
    [
      Field.Assignment.store (Fieldspec.center gfld)
        (Expr.select (Expr.Lt (Expr.field f, Expr.num 0.5)) (Expr.num 1.) (Expr.field f));
    ]
  in
  let k = Ir.Kernel.make ~name:"blend" ~dim:2 body in
  let code = Backend.Simd.emit_kernel ~isa:Backend.Simd.AVX512 (Ir.Lower.run k) in
  Alcotest.(check bool) "mask blend emitted" true
    (contains_sub code "_mm512_mask_blend_pd")

(* ------------------------------------------------------------------ *)

(* Golden snapshots: the exact printed C of the p1 φ- and μ-sweep kernels.
   Any drift in the symbolic pipeline, CSE, lowering or the printer shows up
   as a diff here; PFGEN_UPDATE_GOLDEN=1 refreshes after intentional
   changes. *)
let p1_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p1 ()))

let test_golden_c_phi () =
  let g = Lazy.force p1_gen in
  Golden.check ~name:"p1_phi_full.c" (Backend.Ccode.emit (Ir.Lower.run g.phi_full))

let test_golden_c_mu () =
  let g = Lazy.force p1_gen in
  Golden.check ~name:"p1_mu_full.c"
    (Backend.Ccode.emit (Ir.Lower.run (Option.get g.mu_full)))

(* Model-zoo snapshots: one φ sweep per family (plus eutectic's μ sweep, the
   only zoo family with chemical potentials), so a regression anywhere in
   the combinator frontend, Varder's second-order term or the family rhs
   dispatch shows up as a C diff. *)
let zoo_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.eutectic ()))
let pfc_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.pfc ()))
let gs_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.gray_scott ()))

let test_golden_c_eutectic () =
  let g = Lazy.force zoo_gen in
  Golden.check ~name:"eutectic_phi_full.c" (Backend.Ccode.emit (Ir.Lower.run g.phi_full));
  Golden.check ~name:"eutectic_mu_full.c"
    (Backend.Ccode.emit (Ir.Lower.run (Option.get g.mu_full)))

let test_golden_c_pfc () =
  let g = Lazy.force pfc_gen in
  Golden.check ~name:"pfc_phi_full.c" (Backend.Ccode.emit (Ir.Lower.run g.phi_full))

let test_golden_c_gray_scott () =
  let g = Lazy.force gs_gen in
  Golden.check ~name:"gray_scott_phi_full.c" (Backend.Ccode.emit (Ir.Lower.run g.phi_full))

let suite =
  [
    Alcotest.test_case "generated C compiles (gcc)" `Quick test_c_compiles;
    Alcotest.test_case "golden C: p1 phi sweep" `Quick test_golden_c_phi;
    Alcotest.test_case "golden C: p1 mu sweep" `Quick test_golden_c_mu;
    Alcotest.test_case "golden C: eutectic phi + mu sweeps" `Quick test_golden_c_eutectic;
    Alcotest.test_case "golden C: pfc phi sweep" `Quick test_golden_c_pfc;
    Alcotest.test_case "golden C: gray-scott phi sweep" `Quick test_golden_c_gray_scott;
    Alcotest.test_case "generated AVX512 compiles (gcc)" `Quick test_simd_compiles;
    Alcotest.test_case "generated C == VM (end-to-end)" `Quick test_c_matches_vm;
    Alcotest.test_case "C structure" `Quick test_c_signature_and_structure;
    Alcotest.test_case "CUDA structure" `Quick test_cuda_structure;
    Alcotest.test_case "CUDA approximate ops" `Quick test_cuda_approx_ops;
    Alcotest.test_case "CUDA fences" `Quick test_cuda_fences;
    Alcotest.test_case "CUDA launch config" `Quick test_cuda_launch_config;
    Alcotest.test_case "SIMD structure" `Quick test_simd_structure;
    Alcotest.test_case "SIMD select blend" `Quick test_simd_select_blend;
  ]
