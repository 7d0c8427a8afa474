(** Versioned, checksummed binary snapshots of simulation state.

    A snapshot captures everything a bitwise-identical restart needs: the
    block-grid topology (blocks per axis, block and global dimensions),
    every block's state, the timestep index and physical time, the
    kernel-variant selection, and a fingerprint of the model parameters
    the kernels were generated from.  One type serves a single block, a
    uniform forest and an adaptive forest alike: each is a grid of blocks,
    and each block is either active (its offset and the interiors of its
    state fields, [Pfcore.Timestep.state_fields]: φ_src, and μ_src when
    the model has μ) or frozen (the per-field constants of the adaptive
    forest's coarsened bulk), with an owning rank and a refinement level —
    the block id and 0 outside the adaptive forest.  Nothing else is
    state: a step writes the destination and staggered buffers before it
    reads them, and a restore writes the src interiors and re-primes
    their ghosts by exchange, as after initial conditions.  Because the
    Philox fluctuation streams are keyed on (cell, step) and message
    ordering is deterministic, restoring a snapshot and rerunning
    reproduces the uninterrupted run bit for bit — the property
    [Resilience.Recovery] and the `check` oracles verify.

    The binary encoding is little-endian, versioned by magic, and guarded
    by a CRC-32 over the entire payload: a corrupted file is rejected with
    {!Invalid}, never silently resumed.  Every snapshot is written in the
    v3 layout.  The decoder still reads v2 files (every padded field
    buffer of an active block) and v1 files (v2 without levels, owners and
    block tags, active blocks on the rank of their id); a restore takes
    each state field's interior out of the padded buffer they hold and
    ignores their other fields. *)

exception Invalid of string
(** Malformed, truncated, version-mismatched or corrupted snapshot data,
    or a snapshot the restore target cannot hold. *)

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt
let dims_label = function
  | [||] -> "(none)"
  | a -> String.concat "x" (List.map string_of_int (Array.to_list a))

type fields = (string * float array) list
(** Per field, by name: the interior of an active block's state field
    ({!Vm.Buffer.read_interior}; in a decoded v1 or v2 file, the padded
    buffer of every field), or the per-component constants of a frozen
    block. *)

type block = Active of { offset : int array; fields : fields } | Frozen of fields

type t = {
  fingerprint : int;      (** CRC-32 of the marshalled model parameters *)
  split_phi : bool;
  split_mu : bool;
  step : int;
  time : float;
  grid : int array;       (** blocks per axis; all ones for a single block *)
  block_dims : int array;
  global_dims : int array;
  levels : int array;     (** refinement level per block; 0 = active *)
  owner : int array;      (** owning rank per block *)
  blocks : block array;
}

(** Deterministic fingerprint of a model-parameter set: resuming under a
    different model is an error, not a wrong answer. *)
let fingerprint_of_params (p : Pfcore.Params.t) = Crc.digest (Marshal.to_string p [])

(** Raw field-state volume of a snapshot (8 bytes per stored value) —
    what an in-memory checkpoint holds resident. *)
let state_bytes t =
  let fields_bytes = List.fold_left (fun acc (_, a) -> acc + (8 * Array.length a)) in
  Array.fold_left
    (fun acc -> function Active a -> fields_bytes acc a.fields | Frozen c -> fields_bytes acc c)
    0 t.blocks

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

let is_split = function Pfcore.Timestep.Split -> true | Pfcore.Timestep.Full -> false

let name (f : Symbolic.Fieldspec.t) = f.Symbolic.Fieldspec.name

let capture_state = function
  | Blocks.Lockstep.Active sim ->
    let block = sim.Pfcore.Timestep.block in
    Active
      {
        offset = Array.copy block.Vm.Engine.offset;
        fields =
          List.map
            (fun f -> (name f, Vm.Buffer.read_interior (Vm.Engine.buffer block f)))
            (Pfcore.Timestep.state_fields sim.Pfcore.Timestep.gen);
      }
  | Blocks.Lockstep.Frozen consts ->
    Frozen (List.map (fun (f, cv) -> (name f, Array.copy cv)) consts)

(* The one capture core: a grid of blocks in lockstep (all blocks share
   the step index and time). *)
let capture_core ~(gen : Pfcore.Genkernels.t) ~variant_phi ~variant_mu ~step ~time ~grid
    ~block_dims ~global_dims ~levels ~owner states =
  Obs.Span.with_ ~cat:"ckpt" "snapshot:capture" @@ fun () ->
  let t =
    {
      fingerprint = fingerprint_of_params gen.Pfcore.Genkernels.params;
      split_phi = is_split variant_phi;
      split_mu = is_split variant_mu;
      step;
      time;
      grid = Array.copy grid;
      block_dims = Array.copy block_dims;
      global_dims = Array.copy global_dims;
      levels = Array.copy levels;
      owner = Array.copy owner;
      blocks = Array.map capture_state states;
    }
  in
  Obs.Metrics.count "ckpt.captures" 1;
  if Obs.Sink.enabled () then Obs.Metrics.count "ckpt.state_bytes" (state_bytes t);
  t

(* Every block active, block [i] on rank [i]. *)
let capture_sims ~grid ~block_dims ~global_dims (sims : Pfcore.Timestep.t array) =
  let s = sims.(0) and n = Array.length sims in
  capture_core ~gen:s.Pfcore.Timestep.gen ~variant_phi:s.Pfcore.Timestep.variant_phi
    ~variant_mu:s.Pfcore.Timestep.variant_mu ~step:s.Pfcore.Timestep.step_count
    ~time:s.Pfcore.Timestep.time ~grid ~block_dims ~global_dims ~levels:(Array.make n 0)
    ~owner:(Array.init n Fun.id)
    (Array.map (fun sim -> Blocks.Lockstep.Active sim) sims)

(** Snapshot a whole block forest. *)
let capture (f : Blocks.Forest.t) =
  capture_sims ~grid:f.Blocks.Forest.grid ~block_dims:f.Blocks.Forest.block_dims
    ~global_dims:f.Blocks.Forest.global_dims f.Blocks.Forest.sims

(** Snapshot a single-block simulation (a 1×…×1 forest). *)
let capture_single (sim : Pfcore.Timestep.t) =
  let block = sim.Pfcore.Timestep.block in
  capture_sims
    ~grid:(Array.map (fun _ -> 1) block.Vm.Engine.dims)
    ~block_dims:block.Vm.Engine.dims ~global_dims:block.Vm.Engine.global_dims [| sim |]

(** Snapshot a whole adaptive forest, refinement state included. *)
let capture_adaptive (af : Blocks.Adaptive.t) =
  capture_core ~gen:af.Blocks.Adaptive.gen ~variant_phi:af.Blocks.Adaptive.variant_phi
    ~variant_mu:af.Blocks.Adaptive.variant_mu ~step:af.Blocks.Adaptive.step_count
    ~time:af.Blocks.Adaptive.time ~grid:af.Blocks.Adaptive.bgrid
    ~block_dims:af.Blocks.Adaptive.block_dims ~global_dims:af.Blocks.Adaptive.global_dims
    ~levels:af.Blocks.Adaptive.levels ~owner:af.Blocks.Adaptive.owner af.Blocks.Adaptive.states

(* ------------------------------------------------------------------ *)
(* Restore                                                             *)
(* ------------------------------------------------------------------ *)

let require_same_dims what (a : int array) (b : int array) =
  if a <> b then
    invalid "snapshot %s mismatch: stored %s, target %s" what (dims_label a) (dims_label b)

(* Load an active block's state-field interiors and the step clock into
   [sim].  A stored field is an interior (v3) or, from a v1 or v2 file, a
   padded buffer, told apart by length; the other fields of such a file
   are ignored.  The ghosts are left to the caller's prime. *)
let load_active t ~offset ~fields (sim : Pfcore.Timestep.t) =
  let block = sim.Pfcore.Timestep.block in
  require_same_dims "block offset" offset block.Vm.Engine.offset;
  List.iter
    (fun f ->
      let buf = Vm.Engine.buffer block f in
      match List.assoc_opt (name f) fields with
      | None -> invalid "snapshot is missing field %s" (name f)
      | Some data ->
        let n = Array.length data in
        if n = Vm.Buffer.interior_length buf then Vm.Buffer.write_interior buf data
        else if n = Array.length buf.Vm.Buffer.data then Vm.Buffer.blit_interior data buf
        else
          invalid "snapshot field %s has %d elements, the block holds %d (%d padded)"
            (name f) n (Vm.Buffer.interior_length buf) (Array.length buf.Vm.Buffer.data))
    (Pfcore.Timestep.state_fields sim.Pfcore.Timestep.gen);
  Pfcore.Timestep.restore sim ~step:t.step ~time:t.time

(* The one restore core: validate [t] against the target's model and
   shape, then hand each block to [place].  Without [ranks] the target
   keeps every block active on the rank of its id (a uniform forest, a
   single block); with it, blocks may be frozen and owned by any rank
   below [ranks] (an adaptive forest). *)
let restore_core ?ranks t ~(gen : Pfcore.Genkernels.t) ~grid ~block_dims ~global_dims place =
  let fp = fingerprint_of_params gen.Pfcore.Genkernels.params in
  if t.fingerprint <> fp then
    invalid "snapshot was taken with a different model (fingerprint %08x, ours %08x)"
      t.fingerprint fp;
  require_same_dims "grid" t.grid grid;
  require_same_dims "block dims" t.block_dims block_dims;
  require_same_dims "global dims" t.global_dims global_dims;
  let n = Array.fold_left ( * ) 1 grid in
  if Array.length t.blocks <> n || Array.length t.owner <> n || Array.length t.levels <> n then
    invalid "snapshot holds %d blocks (%d owners, %d levels), target has %d"
      (Array.length t.blocks) (Array.length t.owner) (Array.length t.levels) n;
  Array.iteri
    (fun i blk ->
      let o = t.owner.(i) in
      match (ranks, blk) with
      | None, Frozen _ ->
        invalid "snapshot block %d is frozen, the target keeps every block active" i
      | None, _ when o <> i ->
        invalid "snapshot block %d is on rank %d, the target keeps it on rank %d" i o i
      | Some r, _ when o < 0 || o >= r ->
        invalid "snapshot block %d is on rank %d, the target has %d rank(s)" i o r
      | _ -> ())
    t.blocks;
  Array.iteri place t.blocks

(* A uniform forest or a single block: block [i] into [sims.(i)]. *)
let restore_sims t ~grid ~block_dims ~global_dims (sims : Pfcore.Timestep.t array) =
  restore_core t ~gen:sims.(0).Pfcore.Timestep.gen ~grid ~block_dims ~global_dims
    (fun i -> function
      | Active { offset; fields } -> load_active t ~offset ~fields sims.(i)
      | Frozen _ -> assert false (* rejected by [restore_core] *))

(** Load a snapshot into an existing forest of identical topology and
    model, then prime the src ghosts ([Blocks.Forest.prime], which sends
    messages); the continuation is bitwise identical. *)
let restore t (f : Blocks.Forest.t) =
  restore_sims t ~grid:f.Blocks.Forest.grid ~block_dims:f.Blocks.Forest.block_dims
    ~global_dims:f.Blocks.Forest.global_dims f.Blocks.Forest.sims;
  Blocks.Forest.prime f

(** Load a single-block snapshot into an existing simulation, then prime
    the src ghosts ([Pfcore.Timestep.prime]). *)
let restore_single t (sim : Pfcore.Timestep.t) =
  let block = sim.Pfcore.Timestep.block in
  restore_sims t
    ~grid:(Array.map (fun _ -> 1) block.Vm.Engine.dims)
    ~block_dims:block.Vm.Engine.dims ~global_dims:block.Vm.Engine.global_dims [| sim |];
  Pfcore.Timestep.prime sim

(** Load a snapshot into an existing adaptive forest of identical topology
    and model: refinement levels, block ownership and per-block state
    (state-field interiors or constants) are restored exactly and the src
    ghosts primed once every block is placed, so replay is bitwise
    identical — including the adaptation decisions, which are pure
    functions of the restored state. *)
let restore_adaptive t (af : Blocks.Adaptive.t) =
  let field_by_name name =
    match
      List.find_opt
        (fun (f : Symbolic.Fieldspec.t) -> f.Symbolic.Fieldspec.name = name)
        (Pfcore.Timestep.field_list af.Blocks.Adaptive.gen)
    with
    | Some f -> f
    | None -> invalid "snapshot names unknown field %s" name
  in
  restore_core ~ranks:af.Blocks.Adaptive.n_ranks t ~gen:af.Blocks.Adaptive.gen
    ~grid:af.Blocks.Adaptive.bgrid ~block_dims:af.Blocks.Adaptive.block_dims
    ~global_dims:af.Blocks.Adaptive.global_dims (fun i blk ->
      (* the owner first: a re-materialised block takes its rank's lane *)
      af.Blocks.Adaptive.owner.(i) <- t.owner.(i);
      af.Blocks.Adaptive.levels.(i) <- t.levels.(i);
      af.Blocks.Adaptive.states.(i) <-
        (match blk with
        | Frozen consts ->
          Blocks.Adaptive.Frozen
            (List.map (fun (name, cv) -> (field_by_name name, Array.copy cv)) consts)
        | Active { offset; fields } ->
          let sim =
            match af.Blocks.Adaptive.states.(i) with
            | Blocks.Adaptive.Active sim -> sim
            | Blocks.Adaptive.Frozen _ -> Blocks.Adaptive.make_sim af i
          in
          load_active t ~offset ~fields sim;
          Blocks.Adaptive.Active sim));
  af.Blocks.Adaptive.step_count <- t.step;
  af.Blocks.Adaptive.time <- t.time;
  Blocks.Lockstep.prime af.Blocks.Adaptive.blocks

(* ------------------------------------------------------------------ *)
(* Binary encoding                                                     *)
(* ------------------------------------------------------------------ *)

(* v1 (read only): no levels, no owners, no block tags.  v2 (read only):
   the v3 framing, active blocks holding every padded buffer. *)
let magics = [| "PFSNAP1\n"; "PFSNAP2\n"; "PFSNAP3\n" |]
let version = 3

(* The sizes of the v3 layout's parts, in bytes. *)
let ints_size a = 4 + (4 * Array.length a)

let fields_size l =
  List.fold_left (fun acc (name, a) -> acc + 8 + String.length name + (8 * Array.length a)) 4 l

let payload_size t =
  4 + 4 + 1 + 1 + 8 + 8
  + List.fold_left (fun acc a -> acc + ints_size a) 0
      [ t.grid; t.block_dims; t.global_dims; t.levels; t.owner ]
  + 4
  + Array.fold_left
      (fun acc -> function
        | Active a -> acc + 1 + ints_size a.offset + fields_size a.fields
        | Frozen c -> acc + 1 + fields_size c)
      0 t.blocks

(* The header: magic · CRC-32(payload) · payload length. *)
let header_size = String.length magics.(0) + 8

(* Write the payload into [b] from [header_size] on. *)
let write_payload b t =
  let pos = ref header_size in
  let i32 n =
    Bytes.set_int32_le b !pos (Int32.of_int n);
    pos := !pos + 4
  in
  let u8 n =
    Bytes.set_uint8 b !pos n;
    incr pos
  in
  let f64 x =
    Bytes.set_int64_le b !pos (Int64.bits_of_float x);
    pos := !pos + 8
  in
  let ints a =
    i32 (Array.length a);
    Array.iter i32 a
  in
  let fields l =
    i32 (List.length l);
    List.iter
      (fun (name, (a : float array)) ->
        i32 (String.length name);
        Bytes.blit_string name 0 b !pos (String.length name);
        pos := !pos + String.length name;
        i32 (Array.length a);
        let p = !pos in
        for k = 0 to Array.length a - 1 do
          Bytes.set_int64_le b (p + (8 * k)) (Int64.bits_of_float (Array.unsafe_get a k))
        done;
        pos := p + (8 * Array.length a))
      l
  in
  i32 version;
  i32 t.fingerprint;
  u8 (Bool.to_int t.split_phi);
  u8 (Bool.to_int t.split_mu);
  Bytes.set_int64_le b !pos (Int64.of_int t.step);
  pos := !pos + 8;
  f64 t.time;
  List.iter ints [ t.grid; t.block_dims; t.global_dims; t.levels; t.owner ];
  i32 (Array.length t.blocks);
  Array.iter
    (function
      | Active a ->
        u8 1;
        ints a.offset;
        fields a.fields
      | Frozen c ->
        u8 0;
        fields c)
    t.blocks;
  !pos

(** Serialize to the versioned, checksummed wire format:
    magic · CRC-32(payload) · payload-length · payload.  The file is sized
    first and written into one buffer of exactly that size, so encoding
    allocates little more than the bytes it returns. *)
let encode t =
  Obs.Span.with_ ~cat:"ckpt" "snapshot:encode" @@ fun () ->
  let len = payload_size t in
  let b = Bytes.create (header_size + len) in
  let stop = write_payload b t in
  assert (stop = Bytes.length b);
  Bytes.blit_string magics.(version - 1) 0 b 0 (String.length magics.(0));
  (* the payload is written and never changes again: read it in place *)
  let crc = Crc.digest ~pos:header_size ~len (Bytes.unsafe_to_string b) in
  Bytes.set_int32_le b (header_size - 8) (Int32.of_int crc);
  Bytes.set_int32_le b (header_size - 4) (Int32.of_int len);
  let s = Bytes.unsafe_to_string b in
  Obs.Metrics.count "ckpt.encoded_bytes" (String.length s);
  s

type cursor = { s : string; mutable pos : int }

let take c n =
  if n < 0 || c.pos + n > String.length c.s then
    invalid "truncated snapshot (at byte %d)" c.pos;
  let p = c.pos in
  c.pos <- p + n;
  p

let read_i32 c = Int32.to_int (String.get_int32_le c.s (take c 4)) land 0xFFFFFFFF
let read_i64 c = String.get_int64_le c.s (take c 8)
let read_u8 c = Char.code c.s.[take c 1]
let read_f64 c = Int64.float_of_bits (read_i64 c)
let bounded what n limit = if n < 0 || n > limit then invalid "implausible %s count %d" what n

let read_ints ?(what = "axis") ?(limit = 16) c =
  let n = read_i32 c in
  bounded what n limit;
  Array.init n (fun _ -> read_i32 c)

(* A field list; [limit] bounds the values per field. *)
let read_fields c ~what ~limit =
  let n = read_i32 c in
  bounded "field" n 256;
  List.init n (fun _ ->
      let len = read_i32 c in
      bounded "name byte" len 4096;
      let name = String.sub c.s (take c len) len in
      let len = read_i32 c in
      bounded what len limit;
      (* each float straight from its 8 bytes: no boxed int64 between *)
      let at = take c (8 * len) in
      let a = Array.create_float len in
      for k = 0 to len - 1 do
        Array.unsafe_set a k (Int64.float_of_bits (String.get_int64_le c.s (at + (8 * k))))
      done;
      (name, a))

let read_active c =
  let offset = read_ints c in
  Active { offset; fields = read_fields c ~what:"element" ~limit:(1 lsl 28) }

(* The block grid a snapshot describes: grid, block and global dims are
   non-empty and of one length, the grid holds [blocks] blocks, and
   global = grid × block on every axis — checked before anything reads an
   axis or sizes a block from them.  [blocks] is bounded, so the capped
   product is exact where it matters, and a grid that passes has no axis
   large enough to overflow the last check. *)
let check_topology ~grid ~block_dims ~global_dims ~blocks =
  let d = Array.length grid in
  if d = 0 || Array.length block_dims <> d || Array.length global_dims <> d then
    invalid "snapshot dims disagree: grid %s, block %s, global %s" (dims_label grid)
      (dims_label block_dims) (dims_label global_dims);
  if
    Array.exists (fun g -> g < 1) grid
    || Array.fold_left (fun acc g -> min (acc * g) (blocks + 1)) 1 grid <> blocks
  then
    invalid "snapshot grid %s does not hold its %d blocks" (dims_label grid) blocks;
  Array.iteri
    (fun a g ->
      if global_dims.(a) <> g * block_dims.(a) then
        invalid "snapshot global dims %s are not grid %s x block %s" (dims_label global_dims)
          (dims_label grid) (dims_label block_dims))
    grid

(** Parse and validate a snapshot of any layout; raises {!Invalid} on
    bad magic, version skew, truncation, checksum mismatch, implausible
    counts, a block grid whose dims disagree ({!check_topology}), an
    unknown block tag or trailing garbage. *)
let decode s =
  let ml = String.length magics.(0) in
  if String.length s < ml + 8 then invalid "not a snapshot: too short";
  let v =
    match Array.find_index (String.equal (String.sub s 0 ml)) magics with
    | Some i -> i + 1
    | None -> invalid "not a snapshot: bad magic"
  in
  let c = { s; pos = ml } in
  let crc = read_i32 c in
  let len = read_i32 c in
  if c.pos + len <> String.length s then
    invalid "snapshot length field says %d payload bytes, file has %d" len
      (String.length s - c.pos);
  (* the payload is checked and read in place, never copied *)
  let actual = Crc.digest ~pos:c.pos ~len s in
  if actual <> crc then
    invalid "checksum mismatch (stored %08x, computed %08x): snapshot is corrupted" crc
      actual;
  let pv = read_i32 c in
  if pv <> v then invalid "unsupported snapshot version %d (magic says %d)" pv v;
  let fingerprint = read_i32 c in
  let split_phi = read_u8 c = 1 in
  let split_mu = read_u8 c = 1 in
  let step = Int64.to_int (read_i64 c) in
  let time = read_f64 c in
  let grid = read_ints c in
  let block_dims = read_ints c in
  let global_dims = read_ints c in
  let per_block what = if v = 1 then None else Some (read_ints ~what ~limit:65536 c) in
  let levels = per_block "level" in
  let owner = per_block "owner" in
  let n = read_i32 c in
  bounded "block" n 65536;
  check_topology ~grid ~block_dims ~global_dims ~blocks:n;
  let levels = Option.value levels ~default:(Array.make n 0) in
  let owner = Option.value owner ~default:(Array.init n Fun.id) in
  if Array.length levels <> n || Array.length owner <> n then
    invalid "snapshot holds %d blocks but %d levels and %d owners" n (Array.length levels)
      (Array.length owner);
  let blocks =
    Array.init n (fun _ ->
        if v = 1 then read_active c
        else
          match read_u8 c with
          | 1 -> read_active c
          | 0 -> Frozen (read_fields c ~what:"component" ~limit:4096)
          | tag -> invalid "unknown snapshot block tag %d" tag)
  in
  if c.pos <> String.length s then
    invalid "trailing garbage after snapshot payload (%d bytes)" (String.length s - c.pos);
  {
    fingerprint;
    split_phi;
    split_mu;
    step;
    time;
    grid;
    block_dims;
    global_dims;
    levels;
    owner;
    blocks;
  }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

(** Write [t]'s encoding to [path]; returns its length in bytes. *)
let save path t =
  let s = encode t in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
  String.length s

let load path =
  decode
    (try In_channel.with_open_bin path In_channel.input_all
     with Sys_error e -> invalid "cannot read snapshot: %s" e)

(* ------------------------------------------------------------------ *)
(* Comparison and reporting                                            *)
(* ------------------------------------------------------------------ *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let fields_equal =
  List.equal (fun (na, va) (nb, vb) ->
      na = nb && Array.length va = Array.length vb && Array.for_all2 bits_equal va vb)

(** Bitwise structural equality of the stored state — refinement state
    and ownership included.  Two captures are equal exactly when their
    src interiors (or frozen constants) are; ghosts are not state, and a
    decoded v1 or v2 file (padded buffers) never equals a capture. *)
let equal a b =
  a.fingerprint = b.fingerprint
  && a.split_phi = b.split_phi
  && a.split_mu = b.split_mu
  && a.step = b.step
  && bits_equal a.time b.time
  && a.grid = b.grid
  && a.block_dims = b.block_dims
  && a.global_dims = b.global_dims
  && a.levels = b.levels
  && a.owner = b.owner
  && Array.length a.blocks = Array.length b.blocks
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Active x, Active y -> x.offset = y.offset && fields_equal x.fields y.fields
         | Frozen x, Frozen y -> fields_equal x y
         | _ -> false)
       a.blocks b.blocks

let pp ppf t =
  Fmt.pf ppf "snapshot{step %d, t=%g, grid %s, %d block(s), fingerprint %08x}" t.step
    t.time
    (String.concat "x" (List.map string_of_int (Array.to_list t.grid)))
    (Array.length t.blocks) t.fingerprint
