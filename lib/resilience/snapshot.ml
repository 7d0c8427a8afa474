(** Versioned, checksummed binary snapshots of full simulation state.

    A snapshot captures everything a bitwise-identical restart needs: the
    block-forest topology (rank grid, block and global dimensions), every
    per-block field buffer *including ghost layers*, the timestep index and
    physical time, the kernel-variant selection, and a fingerprint of the
    model parameters the kernels were generated from.  Because the Philox
    fluctuation streams are keyed on (cell, step) and message ordering is
    deterministic, restoring a snapshot and rerunning reproduces the
    uninterrupted run bit for bit — the property [Resilience.Recovery] and
    the `check` oracles verify.

    The binary encoding is little-endian, versioned by magic, and guarded
    by a CRC-32 over the entire payload: a corrupted file is rejected with
    {!Invalid}, never silently resumed. *)

exception Invalid of string
(** Malformed, truncated, version-mismatched or corrupted snapshot data. *)

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

type field_state = { fname : string; data : float array (** full padded buffer *) }
type block_state = { offset : int array; fields : field_state list }

type t = {
  fingerprint : int;      (** CRC-32 of the marshalled model parameters *)
  split_phi : bool;
  split_mu : bool;
  step : int;
  time : float;
  grid : int array;       (** ranks per axis; all ones for a single block *)
  block_dims : int array;
  global_dims : int array;
  blocks : block_state array;
}

(** Deterministic fingerprint of a model-parameter set: resuming under a
    different model is an error, not a wrong answer. *)
let fingerprint_of_params (p : Pfcore.Params.t) = Crc.digest (Marshal.to_string p [])

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

let capture_block (block : Vm.Engine.block) =
  {
    offset = Array.copy block.Vm.Engine.offset;
    fields =
      List.map
        (fun ((f : Symbolic.Fieldspec.t), (buf : Vm.Buffer.t)) ->
          { fname = f.Symbolic.Fieldspec.name; data = Array.copy buf.Vm.Buffer.data })
        block.Vm.Engine.buffers;
  }

let is_split = function Pfcore.Timestep.Split -> true | Pfcore.Timestep.Full -> false

(** Raw field-state volume of a snapshot (padded buffers, 8 bytes per
    element) — what an in-memory checkpoint holds resident. *)
let state_bytes t =
  Array.fold_left
    (fun acc (b : block_state) ->
      List.fold_left (fun acc f -> acc + (8 * Array.length f.data)) acc b.fields)
    0 t.blocks

let observe_capture t =
  Obs.Metrics.count "ckpt.captures" 1;
  if Obs.Sink.enabled () then Obs.Metrics.count "ckpt.state_bytes" (state_bytes t);
  t

(** Snapshot a whole block forest (lockstep: all ranks share the step
    index and time). *)
let capture (f : Blocks.Forest.t) =
  Obs.Span.with_ ~cat:"ckpt" "snapshot:capture" @@ fun () ->
  let sim0 = f.Blocks.Forest.sims.(0) in
  observe_capture
  {
    fingerprint = fingerprint_of_params sim0.Pfcore.Timestep.gen.Pfcore.Genkernels.params;
    split_phi = is_split sim0.Pfcore.Timestep.variant_phi;
    split_mu = is_split sim0.Pfcore.Timestep.variant_mu;
    step = sim0.Pfcore.Timestep.step_count;
    time = sim0.Pfcore.Timestep.time;
    grid = Array.copy f.Blocks.Forest.grid;
    block_dims = Array.copy f.Blocks.Forest.block_dims;
    global_dims = Array.copy f.Blocks.Forest.global_dims;
    blocks =
      Array.map (fun (s : Pfcore.Timestep.t) -> capture_block s.Pfcore.Timestep.block)
        f.Blocks.Forest.sims;
  }

(** Snapshot a single-block simulation (a 1×…×1 forest). *)
let capture_single (sim : Pfcore.Timestep.t) =
  Obs.Span.with_ ~cat:"ckpt" "snapshot:capture" @@ fun () ->
  let block = sim.Pfcore.Timestep.block in
  observe_capture
  {
    fingerprint = fingerprint_of_params sim.Pfcore.Timestep.gen.Pfcore.Genkernels.params;
    split_phi = is_split sim.Pfcore.Timestep.variant_phi;
    split_mu = is_split sim.Pfcore.Timestep.variant_mu;
    step = sim.Pfcore.Timestep.step_count;
    time = sim.Pfcore.Timestep.time;
    grid = Array.make (Array.length block.Vm.Engine.dims) 1;
    block_dims = Array.copy block.Vm.Engine.dims;
    global_dims = Array.copy block.Vm.Engine.global_dims;
    blocks = [| capture_block block |];
  }

(* ------------------------------------------------------------------ *)
(* Restore                                                             *)
(* ------------------------------------------------------------------ *)

let require_same_dims what (a : int array) (b : int array) =
  if a <> b then
    invalid "snapshot %s mismatch: stored %s, target %s" what
      (String.concat "x" (List.map string_of_int (Array.to_list a)))
      (String.concat "x" (List.map string_of_int (Array.to_list b)))

let restore_block (t : block_state) (block : Vm.Engine.block) =
  require_same_dims "block offset" t.offset block.Vm.Engine.offset;
  List.iter
    (fun ((f : Symbolic.Fieldspec.t), (buf : Vm.Buffer.t)) ->
      match List.find_opt (fun fs -> fs.fname = f.Symbolic.Fieldspec.name) t.fields with
      | None -> invalid "snapshot is missing field %s" f.Symbolic.Fieldspec.name
      | Some fs ->
        if Array.length fs.data <> Array.length buf.Vm.Buffer.data then
          invalid "snapshot field %s has %d elements, buffer expects %d"
            f.Symbolic.Fieldspec.name (Array.length fs.data)
            (Array.length buf.Vm.Buffer.data);
        Array.blit fs.data 0 buf.Vm.Buffer.data 0 (Array.length fs.data))
    block.Vm.Engine.buffers

let check_fingerprint t params =
  let fp = fingerprint_of_params params in
  if t.fingerprint <> fp then
    invalid "snapshot was taken with a different model (fingerprint %08x, ours %08x)"
      t.fingerprint fp

(** Load a snapshot into an existing forest of identical topology and
    model; ghost layers are restored verbatim, so no re-priming is needed
    and the continuation is bitwise identical. *)
let restore t (f : Blocks.Forest.t) =
  check_fingerprint t
    f.Blocks.Forest.sims.(0).Pfcore.Timestep.gen.Pfcore.Genkernels.params;
  require_same_dims "grid" t.grid f.Blocks.Forest.grid;
  require_same_dims "block dims" t.block_dims f.Blocks.Forest.block_dims;
  require_same_dims "global dims" t.global_dims f.Blocks.Forest.global_dims;
  if Array.length t.blocks <> Array.length f.Blocks.Forest.sims then
    invalid "snapshot holds %d blocks, forest has %d ranks" (Array.length t.blocks)
      (Array.length f.Blocks.Forest.sims);
  Array.iteri
    (fun i (sim : Pfcore.Timestep.t) ->
      restore_block t.blocks.(i) sim.Pfcore.Timestep.block;
      Pfcore.Timestep.restore sim ~step:t.step ~time:t.time)
    f.Blocks.Forest.sims

(** Load a single-block snapshot into an existing simulation. *)
let restore_single t (sim : Pfcore.Timestep.t) =
  check_fingerprint t sim.Pfcore.Timestep.gen.Pfcore.Genkernels.params;
  if Array.exists (fun g -> g <> 1) t.grid then
    invalid "snapshot is a %d-rank forest, not a single block"
      (Array.fold_left ( * ) 1 t.grid);
  require_same_dims "block dims" t.block_dims sim.Pfcore.Timestep.block.Vm.Engine.dims;
  restore_block t.blocks.(0) sim.Pfcore.Timestep.block;
  Pfcore.Timestep.restore sim ~step:t.step ~time:t.time

(* ------------------------------------------------------------------ *)
(* Binary encoding                                                     *)
(* ------------------------------------------------------------------ *)

let magic = "PFSNAP1\n"
let version = 1

let encode_payload t =
  let b = Buffer.create (1 lsl 16) in
  let i32 n = Buffer.add_int32_le b (Int32.of_int n) in
  let i64 n = Buffer.add_int64_le b (Int64.of_int n) in
  let f64 x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let ints a =
    i32 (Array.length a);
    Array.iter i32 a
  in
  i32 version;
  i32 t.fingerprint;
  Buffer.add_uint8 b (if t.split_phi then 1 else 0);
  Buffer.add_uint8 b (if t.split_mu then 1 else 0);
  i64 t.step;
  f64 t.time;
  ints t.grid;
  ints t.block_dims;
  ints t.global_dims;
  i32 (Array.length t.blocks);
  Array.iter
    (fun blk ->
      ints blk.offset;
      i32 (List.length blk.fields);
      List.iter
        (fun fs ->
          i32 (String.length fs.fname);
          Buffer.add_string b fs.fname;
          i32 (Array.length fs.data);
          Array.iter f64 fs.data)
        blk.fields)
    t.blocks;
  Buffer.contents b

(** Serialize to the versioned, checksummed wire format:
    magic · CRC-32(payload) · payload-length · payload. *)
let encode t =
  Obs.Span.with_ ~cat:"ckpt" "snapshot:encode" @@ fun () ->
  let payload = encode_payload t in
  let b = Buffer.create (String.length payload + 24) in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int (Crc.digest payload));
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  let s = Buffer.contents b in
  Obs.Metrics.count "ckpt.encoded_bytes" (String.length s);
  s

type cursor = { s : string; mutable pos : int }

let read_i32 c =
  if c.pos + 4 > String.length c.s then invalid "truncated snapshot (at byte %d)" c.pos;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) in
  c.pos <- c.pos + 4;
  v land 0xFFFFFFFF

let read_i64 c =
  if c.pos + 8 > String.length c.s then invalid "truncated snapshot (at byte %d)" c.pos;
  let v = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  v

let read_u8 c =
  if c.pos + 1 > String.length c.s then invalid "truncated snapshot (at byte %d)" c.pos;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let read_string c n =
  if n < 0 || c.pos + n > String.length c.s then
    invalid "truncated snapshot (at byte %d)" c.pos;
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

let bounded what n limit = if n < 0 || n > limit then invalid "implausible %s count %d" what n

let read_ints c =
  let n = read_i32 c in
  bounded "axis" n 16;
  Array.init n (fun _ -> read_i32 c)

(** Parse and validate a snapshot; raises {!Invalid} on bad magic, version
    skew, truncation or checksum mismatch. *)
let decode s =
  if String.length s < String.length magic + 8 then invalid "not a snapshot: too short";
  if String.sub s 0 (String.length magic) <> magic then
    invalid "not a snapshot: bad magic";
  let c = { s; pos = String.length magic } in
  let crc = read_i32 c in
  let len = read_i32 c in
  if c.pos + len <> String.length s then
    invalid "snapshot length field says %d payload bytes, file has %d" len
      (String.length s - c.pos);
  let payload = String.sub s c.pos len in
  let actual = Crc.digest payload in
  if actual <> crc then
    invalid "checksum mismatch (stored %08x, computed %08x): snapshot is corrupted" crc
      actual;
  let c = { s = payload; pos = 0 } in
  let v = read_i32 c in
  if v <> version then invalid "unsupported snapshot version %d (expected %d)" v version;
  let fingerprint = read_i32 c in
  let split_phi = read_u8 c = 1 in
  let split_mu = read_u8 c = 1 in
  let step = Int64.to_int (read_i64 c) in
  let time = Int64.float_of_bits (read_i64 c) in
  let grid = read_ints c in
  let block_dims = read_ints c in
  let global_dims = read_ints c in
  let n_blocks = read_i32 c in
  bounded "block" n_blocks 65536;
  let blocks =
    Array.init n_blocks (fun _ ->
        let offset = read_ints c in
        let n_fields = read_i32 c in
        bounded "field" n_fields 256;
        let fields =
          List.init n_fields (fun _ ->
              let n = read_i32 c in
              bounded "name byte" n 4096;
              let fname = read_string c n in
              let len = read_i32 c in
              bounded "element" len (1 lsl 28);
              let data = Array.init len (fun _ -> Int64.float_of_bits (read_i64 c)) in
              { fname; data })
        in
        { offset; fields })
  in
  if c.pos <> String.length payload then
    invalid "trailing garbage after snapshot payload (%d bytes)"
      (String.length payload - c.pos);
  { fingerprint; split_phi; split_mu; step; time; grid; block_dims; global_dims; blocks }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let save path t =
  let oc = open_out_bin path in
  output_string oc (encode t);
  close_out oc

let load path =
  let ic = try open_in_bin path with Sys_error e -> invalid "cannot open snapshot: %s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  decode s

(* ------------------------------------------------------------------ *)
(* Comparison and reporting                                            *)
(* ------------------------------------------------------------------ *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(** Bitwise structural equality — ghost layers included. *)
let equal a b =
  a.fingerprint = b.fingerprint
  && a.split_phi = b.split_phi
  && a.split_mu = b.split_mu
  && a.step = b.step
  && bits_equal a.time b.time
  && a.grid = b.grid
  && a.block_dims = b.block_dims
  && a.global_dims = b.global_dims
  && Array.length a.blocks = Array.length b.blocks
  && Array.for_all2
       (fun ba bb ->
         ba.offset = bb.offset
         && List.length ba.fields = List.length bb.fields
         && List.for_all2
              (fun fa fb ->
                fa.fname = fb.fname
                && Array.length fa.data = Array.length fb.data
                && Array.for_all2 bits_equal fa.data fb.data)
              ba.fields bb.fields)
       a.blocks b.blocks

let pp ppf t =
  Fmt.pf ppf "snapshot{step %d, t=%g, grid %s, %d block(s), fingerprint %08x}" t.step
    t.time
    (String.concat "x" (List.map string_of_int (Array.to_list t.grid)))
    (Array.length t.blocks) t.fingerprint

(* ------------------------------------------------------------------ *)
(* Adaptive forests (v2 wire format; v1 stays byte-identical)          *)
(* ------------------------------------------------------------------ *)

(** One block of an adaptive snapshot: a frozen block is captured as its
    per-field per-component constants — the whole point of coarsening is
    that this is all the state there is. *)
type adaptive_block =
  | Ab_active of block_state
  | Ab_frozen of (string * float array) list

type adaptive = {
  a_fingerprint : int;
  a_split_phi : bool;
  a_split_mu : bool;
  a_step : int;
  a_time : float;
  a_bgrid : int array;
  a_block_dims : int array;
  a_global_dims : int array;
  a_levels : int array;
  a_owner : int array;
  a_blocks : adaptive_block array;
}

(** Snapshot a whole adaptive forest, refinement state included. *)
let capture_adaptive (af : Blocks.Adaptive.t) =
  Obs.Span.with_ ~cat:"ckpt" "snapshot:capture" @@ fun () ->
  Obs.Metrics.count "ckpt.captures" 1;
  {
    a_fingerprint = fingerprint_of_params af.Blocks.Adaptive.gen.Pfcore.Genkernels.params;
    a_split_phi = is_split af.Blocks.Adaptive.variant_phi;
    a_split_mu = is_split af.Blocks.Adaptive.variant_mu;
    a_step = af.Blocks.Adaptive.step_count;
    a_time = af.Blocks.Adaptive.time;
    a_bgrid = Array.copy af.Blocks.Adaptive.bgrid;
    a_block_dims = Array.copy af.Blocks.Adaptive.block_dims;
    a_global_dims = Array.copy af.Blocks.Adaptive.global_dims;
    a_levels = Array.copy af.Blocks.Adaptive.levels;
    a_owner = Array.copy af.Blocks.Adaptive.owner;
    a_blocks =
      Array.map
        (function
          | Blocks.Adaptive.Active sim ->
            Ab_active (capture_block sim.Pfcore.Timestep.block)
          | Blocks.Adaptive.Frozen consts ->
            Ab_frozen
              (List.map
                 (fun ((f : Symbolic.Fieldspec.t), cv) ->
                   (f.Symbolic.Fieldspec.name, Array.copy cv))
                 consts))
        af.Blocks.Adaptive.states;
  }

(** Load an adaptive snapshot into an existing forest of identical
    topology and model: refinement levels, block ownership and per-block
    state (buffers or constants) are restored exactly, so replay is
    bitwise identical — including the adaptation decisions, which are
    pure functions of the restored state. *)
let restore_adaptive a (af : Blocks.Adaptive.t) =
  check_fingerprint
    {
      fingerprint = a.a_fingerprint;
      split_phi = a.a_split_phi;
      split_mu = a.a_split_mu;
      step = a.a_step;
      time = a.a_time;
      grid = a.a_bgrid;
      block_dims = a.a_block_dims;
      global_dims = a.a_global_dims;
      blocks = [||];
    }
    af.Blocks.Adaptive.gen.Pfcore.Genkernels.params;
  require_same_dims "block grid" a.a_bgrid af.Blocks.Adaptive.bgrid;
  require_same_dims "block dims" a.a_block_dims af.Blocks.Adaptive.block_dims;
  require_same_dims "global dims" a.a_global_dims af.Blocks.Adaptive.global_dims;
  if Array.length a.a_blocks <> Array.length af.Blocks.Adaptive.states then
    invalid "adaptive snapshot holds %d blocks, forest has %d" (Array.length a.a_blocks)
      (Array.length af.Blocks.Adaptive.states);
  let field_by_name name =
    match
      List.find_opt
        (fun (f : Symbolic.Fieldspec.t) -> f.Symbolic.Fieldspec.name = name)
        (Pfcore.Timestep.field_list af.Blocks.Adaptive.gen)
    with
    | Some f -> f
    | None -> invalid "adaptive snapshot names unknown field %s" name
  in
  af.Blocks.Adaptive.step_count <- a.a_step;
  af.Blocks.Adaptive.time <- a.a_time;
  Array.blit a.a_levels 0 af.Blocks.Adaptive.levels 0 (Array.length a.a_levels);
  Array.blit a.a_owner 0 af.Blocks.Adaptive.owner 0 (Array.length a.a_owner);
  Array.iteri
    (fun i ab ->
      match ab with
      | Ab_frozen consts ->
        af.Blocks.Adaptive.states.(i) <-
          Blocks.Adaptive.Frozen
            (List.map (fun (name, cv) -> (field_by_name name, Array.copy cv)) consts)
      | Ab_active bs ->
        let sim =
          match af.Blocks.Adaptive.states.(i) with
          | Blocks.Adaptive.Active sim -> sim
          | Blocks.Adaptive.Frozen _ -> Blocks.Adaptive.make_sim af i
        in
        restore_block bs sim.Pfcore.Timestep.block;
        Pfcore.Timestep.restore sim ~step:a.a_step ~time:a.a_time;
        af.Blocks.Adaptive.states.(i) <- Blocks.Adaptive.Active sim)
    a.a_blocks

let magic2 = "PFSNAP2\n"
let version2 = 2

let encode_adaptive_payload t =
  let b = Buffer.create (1 lsl 16) in
  let i32 n = Buffer.add_int32_le b (Int32.of_int n) in
  let i64 n = Buffer.add_int64_le b (Int64.of_int n) in
  let f64 x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let ints a =
    i32 (Array.length a);
    Array.iter i32 a
  in
  i32 version2;
  i32 t.a_fingerprint;
  Buffer.add_uint8 b (if t.a_split_phi then 1 else 0);
  Buffer.add_uint8 b (if t.a_split_mu then 1 else 0);
  i64 t.a_step;
  f64 t.a_time;
  ints t.a_bgrid;
  ints t.a_block_dims;
  ints t.a_global_dims;
  ints t.a_levels;
  ints t.a_owner;
  i32 (Array.length t.a_blocks);
  Array.iter
    (fun ab ->
      match ab with
      | Ab_active blk ->
        Buffer.add_uint8 b 1;
        ints blk.offset;
        i32 (List.length blk.fields);
        List.iter
          (fun fs ->
            i32 (String.length fs.fname);
            Buffer.add_string b fs.fname;
            i32 (Array.length fs.data);
            Array.iter f64 fs.data)
          blk.fields
      | Ab_frozen consts ->
        Buffer.add_uint8 b 0;
        i32 (List.length consts);
        List.iter
          (fun (name, cv) ->
            i32 (String.length name);
            Buffer.add_string b name;
            i32 (Array.length cv);
            Array.iter f64 cv)
          consts)
    t.a_blocks;
  Buffer.contents b

let encode_adaptive t =
  Obs.Span.with_ ~cat:"ckpt" "snapshot:encode" @@ fun () ->
  let payload = encode_adaptive_payload t in
  let b = Buffer.create (String.length payload + 24) in
  Buffer.add_string b magic2;
  Buffer.add_int32_le b (Int32.of_int (Crc.digest payload));
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

let decode_adaptive s =
  if String.length s < String.length magic2 + 8 then
    invalid "not an adaptive snapshot: too short";
  if String.sub s 0 (String.length magic2) <> magic2 then
    invalid "not an adaptive snapshot: bad magic";
  let c = { s; pos = String.length magic2 } in
  let crc = read_i32 c in
  let len = read_i32 c in
  if c.pos + len <> String.length s then
    invalid "adaptive snapshot length field says %d payload bytes, file has %d" len
      (String.length s - c.pos);
  let payload = String.sub s c.pos len in
  if Crc.digest payload <> crc then
    invalid "checksum mismatch: adaptive snapshot is corrupted";
  let c = { s = payload; pos = 0 } in
  let v = read_i32 c in
  if v <> version2 then invalid "unsupported adaptive snapshot version %d" v;
  let a_fingerprint = read_i32 c in
  let a_split_phi = read_u8 c = 1 in
  let a_split_mu = read_u8 c = 1 in
  let a_step = Int64.to_int (read_i64 c) in
  let a_time = Int64.float_of_bits (read_i64 c) in
  let a_bgrid = read_ints c in
  let a_block_dims = read_ints c in
  let a_global_dims = read_ints c in
  let read_int_array limit =
    let n = read_i32 c in
    bounded "entry" n limit;
    Array.init n (fun _ -> read_i32 c)
  in
  let a_levels = read_int_array 65536 in
  let a_owner = read_int_array 65536 in
  let n_blocks = read_i32 c in
  bounded "block" n_blocks 65536;
  let a_blocks =
    Array.init n_blocks (fun _ ->
        match read_u8 c with
        | 1 ->
          let offset = read_ints c in
          let n_fields = read_i32 c in
          bounded "field" n_fields 256;
          let fields =
            List.init n_fields (fun _ ->
                let n = read_i32 c in
                bounded "name byte" n 4096;
                let fname = read_string c n in
                let len = read_i32 c in
                bounded "element" len (1 lsl 28);
                let data = Array.init len (fun _ -> Int64.float_of_bits (read_i64 c)) in
                { fname; data })
          in
          Ab_active { offset; fields }
        | 0 ->
          let n_fields = read_i32 c in
          bounded "field" n_fields 256;
          Ab_frozen
            (List.init n_fields (fun _ ->
                 let n = read_i32 c in
                 bounded "name byte" n 4096;
                 let name = read_string c n in
                 let len = read_i32 c in
                 bounded "component" len 4096;
                 (name, Array.init len (fun _ -> Int64.float_of_bits (read_i64 c)))))
        | tag -> invalid "unknown adaptive block tag %d" tag)
  in
  if c.pos <> String.length payload then
    invalid "trailing garbage after adaptive snapshot payload";
  {
    a_fingerprint;
    a_split_phi;
    a_split_mu;
    a_step;
    a_time;
    a_bgrid;
    a_block_dims;
    a_global_dims;
    a_levels;
    a_owner;
    a_blocks;
  }

(** Bitwise structural equality of adaptive snapshots — refinement
    state, ownership and every stored value included. *)
let equal_adaptive a b =
  a.a_fingerprint = b.a_fingerprint
  && a.a_split_phi = b.a_split_phi
  && a.a_split_mu = b.a_split_mu
  && a.a_step = b.a_step
  && bits_equal a.a_time b.a_time
  && a.a_bgrid = b.a_bgrid
  && a.a_block_dims = b.a_block_dims
  && a.a_global_dims = b.a_global_dims
  && a.a_levels = b.a_levels
  && a.a_owner = b.a_owner
  && Array.length a.a_blocks = Array.length b.a_blocks
  && Array.for_all2
       (fun ba bb ->
         match (ba, bb) with
         | Ab_active xa, Ab_active xb ->
           xa.offset = xb.offset
           && List.length xa.fields = List.length xb.fields
           && List.for_all2
                (fun fa fb ->
                  fa.fname = fb.fname
                  && Array.length fa.data = Array.length fb.data
                  && Array.for_all2 bits_equal fa.data fb.data)
                xa.fields xb.fields
         | Ab_frozen ca, Ab_frozen cb ->
           List.length ca = List.length cb
           && List.for_all2
                (fun (na, va) (nb, vb) ->
                  na = nb
                  && Array.length va = Array.length vb
                  && Array.for_all2 bits_equal va vb)
                ca cb
         | _ -> false)
       a.a_blocks b.a_blocks
