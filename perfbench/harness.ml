(* Measurement plumbing shared by every workload: the clock, order
   statistics, the benchmark's own span recorder, child processes, and the
   result printer.  Nothing here calls into the program under test. *)

(* ------------------------------------------------------------------ *)
(* Clock and statistics                                                *)
(* ------------------------------------------------------------------ *)

(* CLOCK_MONOTONIC, seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Quantile with linear interpolation between order statistics (the
   "type 7" estimator); [q] in [0, 1]. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let h = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float h in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let minimum xs = List.fold_left min infinity xs

(* A timing a run did not take (no traced step, no diagnostic) reads 0. *)
let or0 x = if Float.is_nan x then 0. else x

(* Growable sample buffer for per-operation timings. *)
type samples = { mutable xs : float list; mutable n : int }

let samples () = { xs = []; n = 0 }

let add s x =
  s.xs <- x :: s.xs;
  s.n <- s.n + 1

(* ------------------------------------------------------------------ *)
(* Spans (traced runs only)                                            *)
(* ------------------------------------------------------------------ *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let tracing = ref false
let recorded : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 1

(* Record [name] around [f] when tracing; a plain call otherwise.  Spans
   nest by dynamic extent; id 0 is the implicit root. *)
let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    stack := id :: !stack;
    let start = now () in
    let finish () =
      recorded := { id; parent; name; start; stop = now () } :: !recorded;
      stack := List.tl !stack
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let spans () = List.rev !recorded
let dur s = s.stop -. s.start

(* Per-name aggregate of self time: a span's duration minus the part its
   direct children cover (children never overlap: execution is serial). *)
let self_times spans =
  let child_total = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child_total s.parent) ~default:0. in
      Hashtbl.replace child_total s.parent (prev +. dur s))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt child_total s.id) ~default:0. in
      let n, total = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.) in
      Hashtbl.replace by_name s.name (n + 1, total +. self))
    spans;
  Hashtbl.fold (fun name (n, self) acc -> (name, n, self) :: acc) by_name []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

(* Durations of the direct children named [name] of each span named
   [parent], summed per parent: one value per parent span. *)
let per_parent ~parent ~name spans =
  let sums = Hashtbl.create 64 in
  List.iter (fun s -> if s.name = parent then Hashtbl.replace sums s.id 0.) spans;
  List.iter
    (fun s ->
      if s.name = name then
        match Hashtbl.find_opt sums s.parent with
        | Some acc -> Hashtbl.replace sums s.parent (acc +. dur s)
        | None -> ())
    spans;
  Hashtbl.fold (fun _ v acc -> v :: acc) sums []

let durations name spans =
  List.filter_map (fun s -> if s.name = name then Some (dur s) else None) spans

(* Share of the time inside spans named [parent] that no direct child
   span covers: the part of an operation the named layers do not explain.
   [untraced] is time inside [parent] spent on deliberately untraced
   calls, which is not a remainder. *)
let unattributed ?(untraced = 0.) ~parent spans =
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> if s.name = parent then Hashtbl.replace ids s.id ()) spans;
  let total = List.fold_left ( +. ) 0. (durations parent spans) in
  let covered =
    List.fold_left (fun acc s -> if Hashtbl.mem ids s.parent then acc +. dur s else acc) 0. spans
  in
  (total -. covered -. untraced) /. total

(* Per-layer table of one traced operation: each child layer's median
   time per [parent] span and its share of the median operation. *)
let print_breakdown ?untraced ~parent spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let names =
    List.sort_uniq compare
      (List.filter_map
         (fun s ->
           match Hashtbl.find_opt by_id s.parent with
           | Some p when p.name = parent -> Some s.name
           | _ -> None)
         spans)
  in
  let op = median (durations parent spans) in
  Printf.printf "per-%s breakdown (%d traced, median %.3f ms)\n" parent
    (List.length (durations parent spans)) (op *. 1e3);
  List.iter
    (fun name ->
      let t = median (per_parent ~parent ~name spans) in
      Printf.printf "  %-24s %10.3f ms %6.1f%%\n" name (t *. 1e3) (100. *. t /. op))
    names;
  Printf.printf "  %-24s %17.1f%%\n" "(unattributed)" (100. *. unattributed ?untraced ~parent spans)

(* Whole-run self time per span name, as a share of the run. *)
let print_self_times spans =
  let total = List.fold_left (fun acc s -> if s.parent = 0 then acc +. dur s else acc) 0. spans in
  Printf.printf "self time per layer (whole traced run, %.3f s)\n" total;
  List.iter
    (fun (name, n, self) ->
      Printf.printf "  %-24s %6d calls %10.3f s %6.1f%%\n" name n self (100. *. self /. total))
    (self_times spans)

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome_trace path spans =
  let oc = open_out path in
  let t0 = List.fold_left (fun acc s -> min acc s.start) infinity spans in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}"
        (if i = 0 then "" else ",\n")
        s.name
        ((s.start -. t0) *. 1e6)
        (dur s *. 1e6))
    spans;
  output_string oc "\n]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Process environment                                                 *)
(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM) of this process, MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  let v = scan () in
  close_in ic;
  v

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let children = ref 0

(* Run this executable again with [args] in a fresh directory under this
   run's TMPDIR that also serves as the child's TMPDIR, HOME and cache
   root, so no compiled artifact can pass between processes; returns the
   child's standard output and removes the directory.  The child is
   waited for. *)
let run_child args =
  incr children;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "child-%d-%d" (Unix.getpid ()) !children)
  in
  Unix.mkdir dir 0o700;
  let keep v = not (List.exists (fun p -> String.starts_with ~prefix:p v)
                      [ "TMPDIR="; "HOME="; "XDG_CACHE_HOME=" ]) in
  let env =
    Array.append
      (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
      [| "TMPDIR=" ^ dir; "HOME=" ^ dir; "XDG_CACHE_HOME=" ^ dir |]
  in
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: "--dir" :: dir :: args))
      env Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  rm_rf dir;
  match status with
  | Unix.WEXITED 0 -> out
  | _ -> failwith ("perfbench: child " ^ String.concat " " args ^ " failed")

(* The last line a child printed. *)
let child_line args =
  let out = String.trim (run_child args) in
  List.hd (List.rev (String.split_on_char '\n' out))

let child_float args = float_of_string (child_line args)

(* ------------------------------------------------------------------ *)
(* Host probe                                                          *)
(* ------------------------------------------------------------------ *)

(* Fixed-work memory stream: a triad over three 16 MiB arrays, beyond
   every private cache of a core, five passes; the median pass in ms.  It
   runs in its own process so its 48 MiB never count towards a workload's
   peak RSS. *)
let stream_probe () =
  let n = 2 * 1024 * 1024 in
  let a = Array.make n 1. and b = Array.make n 2. and c = Array.make n 0. in
  let pass () =
    let (), dt =
      timed (fun () ->
          for i = 0 to n - 1 do
            Array.unsafe_set c i (Array.unsafe_get a i +. (0.5 *. Array.unsafe_get b i))
          done)
    in
    a.(0) <- c.(n - 1);
    dt *. 1e3
  in
  ignore (pass ());
  median (List.init 5 (fun _ -> pass ()))

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  rss_mb : float;  (** peak RSS at the end of the measured phase, before verification *)
  e2e : metric list;  (** end-to-end metrics, from an untraced run *)
  info : metric list;  (** unbounded statistics, printed by untraced runs only *)
  layers : metric list;  (** per-layer metrics; timings meaningful only when traced *)
}

(* JSON has no NaN or infinity; a run that produces one is not correct. *)
let json_float x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_metrics =
  List.iter (fun { name; value; unit_ } -> Printf.printf "  %-32s %16.6g %s\n" name value unit_)

(* Print every metric by name with its unit, then the one-line JSON
   result, always the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  print_metrics metrics;
  let body =
    String.concat ", "
      (List.map
         (fun { name; value; unit_ } ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
