(** The JIT's compiler runs: build a batch's C translation units with the
    system C compiler into one shared object, load it through the fixed
    stub ([jit_stubs.c]) and resolve its entries.

    A build works in a fresh directory under [TMPDIR]: it writes unit [i]
    to [u<i>.c] and compiles every unit to an object at once, one
    [gcc -c] child per unit; then it links the objects that compiled into
    [k.so], [dlopen]s it once and resolves the entries — and removes the
    directory on every path, success, failure or exception, after every
    child has been reaped.  The loaded code is never unmapped, so the
    entries outlive the deleted files.  Each compile and the link run under
    coreutils' [timeout] (when it is on PATH), which kills the compiler's
    whole process group, so a hung compiler costs its unit {!timeout_s}
    seconds, not the process.

    Everything degrades softly: [PFGEN_JIT_NATIVE=0] (the fast tier off),
    no [gcc] on PATH, a failed or timed-out compile, or a failed link or
    load yield [Error reason] for the units it touches, and the caller runs
    their programs on the interpreter instead. *)

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

(* Why a compiler child failed: a timeout is not retried. *)
type failure = Failed of string | Timed_out of string

let reason = function Failed why | Timed_out why -> why

(* Wait for [pid], through interrupted waits. *)
let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(** Run every [(argv, log)] of [steps] at once in [dir], each with its
    output to its [log] and killed with its process group after
    [timeout_s] seconds; reap every child, then give each step's outcome,
    in order: [Error] with the reason on a failed start or a nonzero
    exit. *)
let run_steps ?(timeout_s = timeout_s) ~dir steps =
  let spawn (argv, log) =
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
    try
      Ok
        (Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; cmd |] Unix.stdin Unix.stdout
           Unix.stderr)
    with Unix.Unix_error (e, _, _) -> Error (Failed (List.hd argv ^ ": " ^ Unix.error_message e))
  in
  (* every child starts before the first wait, and every one started is
     waited for *)
  let children = List.map (fun step -> (step, spawn step)) steps in
  List.map
    (fun ((argv, log), child) ->
      let prog = List.hd argv in
      Result.bind child (fun pid ->
          match wait pid with
          | Unix.WEXITED 0 -> Ok ()
          | Unix.WEXITED 137 when Lazy.force has_timeout ->
            Error (Timed_out (Printf.sprintf "%s timed out after %g s" prog timeout_s))
          | Unix.WEXITED rc ->
            let out = String.trim (read_file (Filename.concat dir log)) in
            let out = if String.length out > 2000 then String.sub out 0 2000 ^ " ..." else out in
            Error (Failed (Printf.sprintf "%s exited %d: %s" prog rc out))
          | Unix.WSIGNALED s | Unix.WSTOPPED s ->
            Error (Failed (Printf.sprintf "%s killed by signal %d" prog s))))
    children

(** One step of {!run_steps}: [argv] in [dir] with its output to [log]. *)
let run_step ?timeout_s ~dir ~log argv =
  match run_steps ?timeout_s ~dir [ (argv, log) ] with
  | [ r ] -> Result.map_error reason r
  | _ -> assert false

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

(** One translation unit of a build: its source, the vector ISA its flags
    enable ([None]: scalar C) and the entries it defines. *)
type source_unit = { isa : Backend.Simd.isa option; source : string; entries : string list }

(** Build [units] with [cc] (default [gcc]) and resolve each unit's
    [entries], in order: every unit compiles in its own child at once, the
    objects that compiled link into one shared object, loaded once.  The
    result holds one outcome per unit — a unit that fails to compile or
    times out fails alone, a failed link or load fails every unit that
    compiled.  [cc] is split on spaces into the command and its leading
    arguments; [timeout_s] bounds each child (tests). *)
let build ?(cc = "gcc") ?timeout_s units : (nativeint array, string) result list =
  let all why = List.map (fun _ -> Error why) units in
  if disabled () then all "fast tier disabled by PFGEN_JIT_NATIVE"
  else if cc = "gcc" && not (Lazy.force gcc) then all "no gcc on PATH"
  else
    match Filename.temp_dir "pfgen-jit-" "" with
    | exception Sys_error e -> all ("no scratch directory: " ^ e)
    | dir ->
      Fun.protect
        ~finally:(fun () -> remove_dir dir)
        (fun () ->
          let cc = String.split_on_char ' ' cc in
          let units = Array.of_list units in
          let file i ext = Printf.sprintf "u%d.%s" i ext in
          try
            Array.iteri
              (fun i u ->
                Out_channel.with_open_bin (Filename.concat dir (file i "c")) (fun oc ->
                    Out_channel.output_string oc u.source))
              units;
            (* compiling and linking in two runs is ~50 ms faster than one
               [-shared] run of the source *)
            let compile i defines =
              ( cc @ base_flags @ isa_flags units.(i).isa @ defines
                @ [ "-c"; "-o"; file i "o"; file i "c" ],
                file i "log" )
            in
            let slim_now = Atomic.get slim in
            let defines i =
              if units.(i).isa <> None && slim_now then [ "-DPF_SLIM_INTRINSICS" ] else []
            in
            let ids = List.init (Array.length units) Fun.id in
            let compiled =
              run_steps ?timeout_s ~dir (List.map (fun i -> compile i (defines i)) ids)
              |> Array.of_list
            in
            (* a unit that failed with the slim intrinsics set, other than by
               timing out, retries once with <immintrin.h> *)
            let retry =
              List.filter
                (fun i ->
                  defines i <> [] && match compiled.(i) with Error (Failed _) -> true | _ -> false)
                ids
            in
            let retried = run_steps ?timeout_s ~dir (List.map (fun i -> compile i []) retry) in
            if List.exists Result.is_ok retried then Atomic.set slim false;
            List.iter2 (fun i r -> compiled.(i) <- r) retry retried;
            let objects =
              List.map (fun i -> file i "o") (List.filter (fun i -> Result.is_ok compiled.(i)) ids)
            in
            (* [-lm] binds libm's current symbol versions, the ones OCaml
               calls; unlinked, the loader binds glibc's compat wrappers *)
            let loaded =
              if objects = [] then Error "nothing compiled"
              else
                Result.bind
                  (run_step ?timeout_s ~dir ~log:"ld.log"
                     (cc @ [ "-shared"; "-o"; "k.so" ] @ objects @ [ "-lm" ]))
                  (fun () ->
                    try Ok (dlopen (Filename.concat dir "k.so")) with Failure e -> Error e)
            in
            Array.to_list
              (Array.mapi
                 (fun i u ->
                   match (compiled.(i), loaded) with
                   | Error f, _ -> Error (reason f)
                   | Ok (), Error why -> Error why
                   | Ok (), Ok handle -> (
                     try Ok (Array.of_list (List.map (dlsym handle) u.entries))
                     with Failure e -> Error e))
                 units)
          with Sys_error e -> all e)
