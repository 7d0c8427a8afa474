(** Native tier of the JIT: runtime OCaml code generation.

    [Jit] translates a kernel tape into OCaml source (straight-line
    let-bound float arithmetic — the register-allocatable form the tape
    cannot reach); this module turns that source into live machine code
    using the installed toolchain: write the module to a scratch
    directory, shell out to [ocamlopt -shared], and [Dynlink] the
    resulting [.cmxs] into the running process.

    The generated module exports nothing the host could link against —
    the host was built long before the module existed — so the compiled
    closures come back through the one channel Dynlink leaves open: the
    module's initializer raises an exception carrying the closure arrays,
    which Dynlink surfaces verbatim as
    [Error (Library's_module_initializers_failed e)].  The code segment
    of a loaded [.cmxs] is never unmapped, so the extracted closures
    outlive the (deleted) scratch files.

    Everything here degrades softly: no native Dynlink (bytecode host),
    no compiler on PATH, a compile error, or [PFGEN_JIT_NATIVE=0] all
    yield [Error reason], and the caller keeps the portable tape
    closures.  Correctness never depends on this module — only the
    speedup gate does. *)

let disabled () =
  match Sys.getenv_opt "PFGEN_JIT_NATIVE" with
  | Some ("0" | "off" | "tape") -> true
  | _ -> false

(* The compiler to shell out to, discovered once.  [ocamlopt.opt] is the
   fast native-code binary; plain [ocamlopt] and [ocamlfind ocamlopt]
   cover PATH setups that only expose the wrappers. *)
let compiler =
  lazy
    (List.find_opt
       (fun c -> Sys.command (c ^ " -version > /dev/null 2>&1") = 0)
       [ "ocamlopt.opt"; "ocamlopt"; "ocamlfind ocamlopt" ])

let available () =
  (not (disabled ())) && Dynlink.is_native && Lazy.force compiler <> None

(* Remove a compiler run's scratch directory and everything in it. *)
let remove_dir dir =
  let remove f = try Sys.remove (Filename.concat dir f) with Sys_error _ -> () in
  (try Array.iter remove (Sys.readdir dir) with Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

let counter = ref 0

(** A fresh, valid, process-unique compilation unit name.  Dynlink loads
    privately, but unique names keep every load independent. *)
let fresh_modname () =
  incr counter;
  Printf.sprintf "Pfgen_jit_k%d_%d" (Unix.getpid ()) !counter

let read_file path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with _ -> ""

(* Compile [source] as [modname] in [dir] and load the result. *)
let compile_and_load cc dir ~modname ~source =
  let base = String.uncapitalize_ascii modname in
  let ml = Filename.concat dir (base ^ ".ml") in
  let log = Filename.concat dir (base ^ ".log") in
  let oc = open_out ml in
  output_string oc source;
  close_out oc;
  let cmd =
    Printf.sprintf "cd %s && %s -w -a -shared -o %s %s > %s 2>&1" (Filename.quote dir) cc
      (Filename.quote (base ^ ".cmxs"))
      (Filename.quote (base ^ ".ml"))
      (Filename.quote (base ^ ".log"))
  in
  if Sys.command cmd <> 0 then Error ("compile failed: " ^ String.trim (read_file log))
  else
    match Dynlink.loadfile_private (Filename.concat dir (base ^ ".cmxs")) with
    | () -> Error "generated module did not hand off its closures"
    | exception Dynlink.Error (Dynlink.Library's_module_initializers_failed e)
      when Obj.size (Obj.repr e) = 2 ->
      (* [exception Handoff of 'a] is a 2-field block: slot, payload *)
      Ok (Obj.field (Obj.repr e) 1)
    | exception Dynlink.Error err -> Error (Dynlink.error_message err)
    | exception e -> Error (Printexc.to_string e)

(** Compile [source] (which must define the given module and whose
    initializer must [raise (Handoff closures)]) and return the carried
    value.  The result is an [Obj.t]: only the generator knows the
    closure types, so only the generator may cast.  Each compiler run
    works in a fresh directory under [TMPDIR], removed once the load has
    succeeded or failed. *)
let load ~modname ~source : (Obj.t, string) result =
  if disabled () then Error "disabled by PFGEN_JIT_NATIVE"
  else if not Dynlink.is_native then Error "bytecode host: cannot load .cmxs"
  else
    match Lazy.force compiler with
    | None -> Error "no ocamlopt on PATH"
    | Some cc -> (
      match Filename.temp_dir "pfgen-jit-" "" with
      | exception Sys_error e -> Error ("no scratch directory: " ^ e)
      | dir ->
        Fun.protect
          ~finally:(fun () -> remove_dir dir)
          (fun () ->
            try compile_and_load cc dir ~modname ~source with Sys_error e -> Error e))
