(** Size-class memory pool for field-buffer storage (the Petalisp
    [memory-pool] idiom: allocation callbacks backed by per-size free
    lists, so steady-state work does zero fresh allocations).

    Field buffers are padded flat [float array]s whose length is fully
    determined by (field, block dims, ghost width); one size class per
    distinct length therefore recycles storage exactly, with no internal
    fragmentation and no risk of a longer-than-requested array leaking
    into code that iterates [Array.length data].

    Reused arrays are zero-filled on acquire: a pooled allocation is
    observationally identical to [Array.make len 0.], which is what keeps
    farm jobs bitwise-equal to solo runs (oracle 9).

    Accounting is mirrored twice: plain counters served by {!stats} (always
    on, used by tests and the bench gates) and [Obs] counters
    [mempool.hit] / [mempool.miss] / [mempool.high_water_bytes] (visible
    when the sink is armed). *)

type stats = {
  hits : int;  (** acquires served from a free list *)
  misses : int;  (** acquires that had to allocate fresh storage *)
  live_bytes : int;  (** bytes currently checked out *)
  pooled_bytes : int;  (** bytes parked in free lists *)
  high_water_bytes : int;  (** peak footprint (live + pooled) *)
  classes : int;  (** distinct size classes seen *)
}

type t = {
  free : (int, float array list ref) Hashtbl.t;  (** length -> free arrays *)
  mutable hits : int;
  mutable misses : int;
  mutable live_bytes : int;
  mutable pooled_bytes : int;
  mutable high_water_bytes : int;
}

let create () =
  {
    free = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    live_bytes = 0;
    pooled_bytes = 0;
    high_water_bytes = 0;
  }

let bytes_of_len len = 8 * len

let class_of t len =
  match Hashtbl.find_opt t.free len with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.free len l;
    l

let note_high_water t =
  let footprint = t.live_bytes + t.pooled_bytes in
  if footprint > t.high_water_bytes then t.high_water_bytes <- footprint;
  Obs.Metrics.max_gauge (Obs.Metrics.gauge "mempool.high_water_bytes")
    (float_of_int footprint)

(** Check an array of exactly [len] elements out of the pool: a free-list
    hit is zero-filled and recycled, a miss allocates fresh storage. *)
let acquire t len =
  let cls = class_of t len in
  let arr =
    match !cls with
    | arr :: rest ->
      cls := rest;
      t.hits <- t.hits + 1;
      t.pooled_bytes <- t.pooled_bytes - bytes_of_len len;
      Obs.Metrics.count "mempool.hit" 1;
      Array.fill arr 0 len 0.;
      arr
    | [] ->
      t.misses <- t.misses + 1;
      Obs.Metrics.count "mempool.miss" 1;
      Array.make len 0.
  in
  t.live_bytes <- t.live_bytes + bytes_of_len len;
  note_high_water t;
  arr

(** Return an array to its size class.  The caller must not touch it
    afterwards ({!release_block} poisons the buffer it came from). *)
let release t arr =
  let len = Array.length arr in
  if len > 0 then begin
    let cls = class_of t len in
    cls := arr :: !cls;
    t.live_bytes <- t.live_bytes - bytes_of_len len;
    t.pooled_bytes <- t.pooled_bytes + bytes_of_len len
  end

(** Return every backing array of [block] to the pool and poison its
    buffers, so a stale reference faults loudly instead of aliasing
    recycled storage. *)
let release_block t (block : Vm.Engine.block) =
  List.iter
    (fun (_, (buf : Vm.Buffer.t)) ->
      release t buf.Vm.Buffer.data;
      buf.Vm.Buffer.data <- [||])
    block.Vm.Engine.buffers

(** The [Buffer.create]-shaped allocation callback of this pool. *)
let alloc t len = acquire t len

(** Drop every free list (outstanding arrays stay valid; their release
    after a reset simply repopulates the classes). *)
let reset t =
  Hashtbl.reset t.free;
  t.pooled_bytes <- 0

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    live_bytes = t.live_bytes;
    pooled_bytes = t.pooled_bytes;
    high_water_bytes = t.high_water_bytes;
    classes = Hashtbl.length t.free;
  }

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "mempool{hits %d, misses %d, live %d B, pooled %d B, high-water %d B, %d class(es)}"
    s.hits s.misses s.live_bytes s.pooled_bytes s.high_water_bytes s.classes
