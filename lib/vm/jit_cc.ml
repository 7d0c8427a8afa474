(** The JIT's compiler run: build one C translation unit with the system C
    compiler into a shared object, load it through the fixed stub
    ([jit_stubs.c]) and resolve its entries.

    A run works in a fresh directory under [TMPDIR]: it compiles
    [k.c] to an object, links [k.so], [dlopen]s it and resolves the entries
    — then removes the directory on every path, success, failure or
    exception.  The loaded code is never unmapped, so the entries outlive
    the deleted files.  The compile and the link each run under coreutils'
    [timeout] (when it is on PATH), which kills the compiler's whole process
    group, so a hung compiler costs the run {!timeout_s} seconds, not the
    process.

    Everything degrades softly: [PFGEN_JIT_NATIVE=0] (the fast tier off),
    no [gcc] on PATH, a failed or timed-out build, or a failed load yield
    [Error reason], and the caller runs the interpreter instead. *)

external isa_bits : unit -> int = "pfgen_jit_isas"
external dlopen : string -> nativeint = "pfgen_jit_dlopen"
external dlsym : nativeint -> string -> nativeint = "pfgen_jit_dlsym"

(** Call one entry on one tile (see [Backend.Ccode.entry] for the tables). *)
external run : nativeint -> float array array -> float array -> int array -> unit
  = "pfgen_jit_run"
[@@noalloc]

let disabled () =
  match Sys.getenv_opt "PFGEN_JIT_NATIVE" with
  | Some ("0" | "off" | "tape") -> true
  | _ -> false

(** The vector ISAs the CPU supports, from its flags, best last. *)
let supported =
  lazy
    (let bits = isa_bits () in
     List.filter_map
       (fun (bit, isa) -> if bits land bit <> 0 then Some isa else None)
       Backend.Simd.[ (1, SSE2); (2, AVX2); (4, AVX512) ])

(** The ISA the fast tier prints for: AVX-512, else AVX2, else none
    (scalar C).  SSE2 is never chosen; it serves [pfgen gen-c] and the
    tests. *)
let host_isa () =
  match List.rev (Lazy.force supported) with
  | (Backend.Simd.AVX512 | Backend.Simd.AVX2) as isa :: _ -> Some isa
  | _ -> None

let on_path cmd = Sys.command (cmd ^ " --version > /dev/null 2>&1") = 0
let gcc = lazy (on_path "gcc")
let has_timeout = lazy (on_path "timeout")

(** Seconds a compile or link may take before it is killed. *)
let timeout_s = 60.

(** Flags of every build.  [-ffp-contract=off] keeps gcc from fusing a
    multiply and an add into an FMA, which rounds once where the
    interpreter rounds twice; no fast-math, for the same reason.  The
    transcendental functions are not builtins, so gcc neither folds them
    at compile time (with correctly rounded arithmetic where the
    interpreter calls libm) nor merges [sin] and [cos] into [sincos].
    [-fno-math-errno] keeps [sqrt] one [sqrtsd], as OCaml's is, with no
    libm call for a negative argument.  [-fexpensive-optimizations]
    turns on, at [-O1], gcc's pass that clears the upper vector state
    ([vzeroupper]) before every return and call: left dirty, it makes
    every legacy-SSE instruction OCaml runs afterwards wait on it — the
    interpreter ran 1.5× slower after the first AVX-512 sweep.
    [-O1 -fira-region=one]: at the measured cost,
    [-O2] and the default register allocator compile slower and run no
    faster (DESIGN §11). *)
let base_flags =
  [
    "-O1";
    "-pipe";
    "-fPIC";
    "-ffp-contract=off";
    "-fno-math-errno";
    "-fexpensive-optimizations";
    "-fira-region=one";
  ]
  @ List.map (fun f -> "-fno-builtin-" ^ f) [ "exp"; "log"; "sin"; "cos"; "tanh" ]

let isa_flags = function
  | Some Backend.Simd.AVX512 -> [ "-mavx512f" ]
  | Some Backend.Simd.AVX2 -> [ "-mavx2" ]
  | Some Backend.Simd.SSE2 | None -> []

(* Remove a compiler run's scratch directory and everything in it. *)
let remove_dir dir =
  let remove f = try Sys.remove (Filename.concat dir f) with Sys_error _ -> () in
  (try Array.iter remove (Sys.readdir dir) with Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(** Run [argv] in [dir] with output to [log], killed with its process
    group after [timeout_s] seconds; [Error] with the reason on a nonzero
    exit. *)
let run_step ?(timeout_s = timeout_s) ~dir ~log argv =
  let limited =
    if Lazy.force has_timeout then
      [ "timeout"; "-s"; "KILL"; Printf.sprintf "%g" timeout_s ] @ argv
    else argv
  in
  let cmd =
    Printf.sprintf "cd %s && %s > %s 2>&1" (Filename.quote dir)
      (String.concat " " (List.map Filename.quote limited))
      (Filename.quote log)
  in
  match Sys.command cmd with
  | 0 -> Ok ()
  | 137 when Lazy.force has_timeout ->
    Error (Printf.sprintf "%s timed out after %g s" (List.hd argv) timeout_s)
  | rc ->
    let out = String.trim (read_file (Filename.concat dir log)) in
    let out = if String.length out > 2000 then String.sub out 0 2000 ^ " ..." else out in
    Error (Printf.sprintf "%s exited %d: %s" (List.hd argv) rc out)

(** The intrinsics include of a fast-tier source.  Parsing all of
    [<immintrin.h>] costs gcc 12 about 145 ms of every run, more than
    compiling a small plan; the headers the printed code needs (SSE4.1 for
    the rounding constants, AVX, AVX2, AVX-512F) take about 30 ms.  They
    refuse direct inclusion unless [<immintrin.h>]'s guard is set, so the
    slim set is gcc-specific: {!build} selects it with [-DPF_SLIM_INTRINSICS]
    and, should it not compile, retries once with [<immintrin.h>] and keeps
    that for the rest of the process. *)
let intrinsics_header =
  {|#ifdef PF_SLIM_INTRINSICS
#define _IMMINTRIN_H_INCLUDED
#include <smmintrin.h>
#include <avxintrin.h>
#include <avx2intrin.h>
#include <avx512fintrin.h>
#else
#include <immintrin.h>
#endif
|}

let slim = Atomic.make true

(** Build [source] for [isa] with [cc] (default [gcc]) and resolve
    [entries], in order.  [cc] is split on spaces into the command and
    its leading arguments. *)
let build ?(cc = "gcc") ~isa ~source entries : (nativeint array, string) result =
  if disabled () then Error "fast tier disabled by PFGEN_JIT_NATIVE"
  else if cc = "gcc" && not (Lazy.force gcc) then Error "no gcc on PATH"
  else
    match Filename.temp_dir "pfgen-jit-" "" with
    | exception Sys_error e -> Error ("no scratch directory: " ^ e)
    | dir ->
      Fun.protect
        ~finally:(fun () -> remove_dir dir)
        (fun () ->
          let ( let* ) = Result.bind in
          let cc = String.split_on_char ' ' cc in
          try
            Out_channel.with_open_bin (Filename.concat dir "k.c") (fun oc ->
                Out_channel.output_string oc source);
            (* compiling and linking in two runs is ~50 ms faster than one
               [-shared] run of the source *)
            let compile defines =
              run_step ~dir ~log:"cc.log"
                (cc @ base_flags @ isa_flags isa @ defines @ [ "-c"; "-o"; "k.o"; "k.c" ])
            in
            let* () =
              if isa = None || not (Atomic.get slim) then compile []
              else
                match compile [ "-DPF_SLIM_INTRINSICS" ] with
                | Ok () -> Ok ()
                | Error _ ->
                  let full = compile [] in
                  if Result.is_ok full then Atomic.set slim false;
                  full
            in
            (* [-lm] binds libm's current symbol versions, the ones OCaml
               calls; unlinked, the loader binds glibc's compat wrappers *)
            let* () =
              run_step ~dir ~log:"ld.log" (cc @ [ "-shared"; "-o"; "k.so"; "k.o"; "-lm" ])
            in
            let handle = dlopen (Filename.concat dir "k.so") in
            Ok (Array.of_list (List.map (dlsym handle) entries))
          with Failure e | Sys_error e -> Error e)
