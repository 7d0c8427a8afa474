(** Metrics registry: counters, gauges and fixed-bucket histograms.

    Metrics are registered by name on first use ({!counter} etc. are
    idempotent) and mutated in place.  Mutations are gated on
    {!Sink.enabled}; registration is not, so hot paths that run with the
    sink off go through {!count}, which gates both and costs one branch
    when observability is off.  All mutation happens on the coordinating
    thread (per sweep / per message), never per cell, so plain mutable
    fields suffice; the registry itself is mutex-protected against
    concurrent registration.

    {!snapshot} freezes the registry into an immutable value; snapshots
    {!merge} pointwise (counters and histogram buckets add, gauges take the
    max), which is how per-domain or per-run aggregates are combined.
    Merge is associative and commutative with {!empty} as the unit — a law
    the [check] suite enforces by property test. *)

type counter = { cname : string; mutable count : int }
type gauge = { gname : string; mutable value : float }

type histogram = {
  hname : string;
  bounds : float array;  (** ascending upper bucket bounds; last bucket is +inf *)
  buckets : int array;   (** length = Array.length bounds + 1 *)
  mutable hcount : int;
  mutable sum : float;
}

let registry_mu = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) f

let find_or_add table name make =
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.replace table name m;
        m)

let counter name = find_or_add counters name (fun () -> { cname = name; count = 0 })
let gauge name = find_or_add gauges name (fun () -> { gname = name; value = 0. })

(** Geometric nanosecond buckets, 256 ns .. ~4.4 s in factors of 4. *)
let default_bounds = Array.init 12 (fun i -> 256. *. (4. ** float_of_int i))

let histogram ?(bounds = default_bounds) name =
  find_or_add histograms name (fun () ->
      let n = Array.length bounds in
      if n = 0 then invalid_arg "Metrics.histogram: empty bounds";
      for i = 1 to n - 1 do
        if bounds.(i) <= bounds.(i - 1) then
          invalid_arg "Metrics.histogram: bounds must be strictly ascending"
      done;
      { hname = name; bounds = Array.copy bounds; buckets = Array.make (n + 1) 0;
        hcount = 0; sum = 0. })

let add c by = if Sink.enabled () then c.count <- c.count + by
let incr c = add c 1

(** Add [by] to the counter [name], registering it on first use — but only
    when the sink is enabled.  Disabled, this is the one atomic load and
    branch: no registry lock, no lookup, nothing registered.  Call sites
    that run whether or not anyone observes use this instead of
    [add (counter name)], whose registration is ungated. *)
let count name by = if Sink.enabled () then add (counter name) by

let set g v = if Sink.enabled () then g.value <- v
let max_gauge g v = if Sink.enabled () && v > g.value then g.value <- v

let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  if Sink.enabled () then begin
    let i = bucket_index h.bounds v in
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.hcount <- h.hcount + 1;
    h.sum <- h.sum +. v
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type histo_snapshot = {
  hs_bounds : float array;
  hs_buckets : int array;
  hs_count : int;
  hs_sum : float;
}

type snapshot = {
  s_counters : (string * int) list;            (** sorted by name *)
  s_gauges : (string * float) list;            (** sorted by name *)
  s_histograms : (string * histo_snapshot) list;  (** sorted by name *)
}

let empty = { s_counters = []; s_gauges = []; s_histograms = [] }

let snapshot_histogram (h : histogram) =
  { hs_bounds = Array.copy h.bounds; hs_buckets = Array.copy h.buckets;
    hs_count = h.hcount; hs_sum = h.sum }

let sorted_items table f =
  List.sort (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) table [])

(** Freeze the registry.  Works whether or not the sink is enabled. *)
let snapshot () =
  locked (fun () ->
      {
        s_counters = sorted_items counters (fun c -> c.count);
        s_gauges = sorted_items gauges (fun g -> g.value);
        s_histograms = sorted_items histograms snapshot_histogram;
      })

let merge_histo a b =
  if a.hs_bounds <> b.hs_bounds then
    invalid_arg "Metrics.merge: histograms with different bucket bounds";
  {
    hs_bounds = a.hs_bounds;
    hs_buckets = Array.mapi (fun i n -> n + b.hs_buckets.(i)) a.hs_buckets;
    hs_count = a.hs_count + b.hs_count;
    hs_sum = a.hs_sum +. b.hs_sum;
  }

(* Merge two sorted association lists with [combine] on common keys. *)
let rec merge_alist combine a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, va) :: ra, (kb, vb) :: rb ->
    let c = String.compare ka kb in
    if c < 0 then (ka, va) :: merge_alist combine ra b
    else if c > 0 then (kb, vb) :: merge_alist combine a rb
    else (ka, combine va vb) :: merge_alist combine ra rb

(** Pointwise merge: counters and histogram buckets add, gauges keep the
    maximum.  Associative and commutative; [empty] is the unit. *)
let merge a b =
  {
    s_counters = merge_alist ( + ) a.s_counters b.s_counters;
    s_gauges = merge_alist Float.max a.s_gauges b.s_gauges;
    s_histograms = merge_alist merge_histo a.s_histograms b.s_histograms;
  }

let counter_value s name = List.assoc_opt name s.s_counters

(** Drop every metric from the registry (test isolation). *)
let reset () =
  locked (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset gauges;
      Hashtbl.reset histograms)
