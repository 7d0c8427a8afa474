(** Ghost-layer packing and unpacking (paper §4.3).

    Slabs are packed into contiguous buffers before sending — the same
    two-step exchange the paper implements with device-side packing kernels
    on GPUs, and, as in waLBerla, a slab is copied as whole contiguous rows
    of the field array ({!Vm.Buffer.slab_rows}), never cell by cell.
    Exchanging axis by axis, with the slab spanning the full padded extent
    of the other axes, also propagates edge and corner ghost values (needed
    by the D3C19-shaped kernels). *)

type side = Low | High

(* Cell range of the slab along the exchange axis. *)
let pack_range buf axis = function
  | Low -> (0, buf.Vm.Buffer.ghost - 1)
  | High -> (buf.Vm.Buffer.dims.(axis) - buf.Vm.Buffer.ghost, buf.Vm.Buffer.dims.(axis) - 1)

let unpack_range buf axis = function
  | Low -> (-buf.Vm.Buffer.ghost, -1)
  | High -> (buf.Vm.Buffer.dims.(axis), buf.Vm.Buffer.dims.(axis) + buf.Vm.Buffer.ghost - 1)

let rows buf axis (lo, hi) = Vm.Buffer.slab_rows buf ~axis ~lo ~hi

(** Elements in one slab of [axis] (every side's slab has this size). *)
let slab_size buf axis =
  let r = rows buf axis (pack_range buf axis Low) in
  r.Vm.Buffer.count * r.Vm.Buffer.len

(** The slab of the [side] interior boundary, as the contiguous rows
    {!Vm.Buffer.slab_rows} lists: component by component, in storage
    order. *)
let pack buf ~axis ~side = Vm.Buffer.read_slab buf (rows buf axis (pack_range buf axis side))

let unpack buf ~axis ~side data =
  let r = rows buf axis (unpack_range buf axis side) in
  if Array.length data <> r.Vm.Buffer.count * r.Vm.Buffer.len then
    invalid_arg "Ghost.unpack: size mismatch";
  Vm.Buffer.write_slab buf r data

(** The slab an all-constant neighbor would send: [cv.(c)] for storage
    component [c] at every cell.  {!pack} lays a slab out component by
    component, so the wire image is one constant run per component —
    [unpack]ing this is bitwise identical to receiving from a neighbor
    whose padded buffer holds exactly these per-component constants.  The
    adaptive forest uses it to service exchanges on behalf of frozen
    blocks without materializing them. *)
let constant_slab buf ~axis (cv : float array) =
  if Array.length cv <> buf.Vm.Buffer.components then
    invalid_arg "Ghost.constant_slab: component count mismatch";
  let out = Array.create_float (slab_size buf axis) in
  let per_component = Array.length out / Array.length cv in
  Array.iteri (fun c v -> Array.fill out (c * per_component) per_component v) cv;
  out

(** Ghost bytes exchanged per block per field per full exchange — the
    message volume used by the network model. *)
let exchange_bytes buf =
  let dim = Array.length buf.Vm.Buffer.dims in
  let total = ref 0 in
  for axis = 0 to dim - 1 do
    total := !total + (2 * 8 * slab_size buf axis)
  done;
  !total

(* ------------------------------------------------------------------ *)
(* Self-healing exchange protocol                                      *)
(* ------------------------------------------------------------------ *)

exception Rank_crashed of int
(** The sender rank is dead: the caller must roll the whole simulation
    back to its last checkpoint (see [Resilience.Recovery]). *)

exception Exchange_failed of (int * int * int)
(** Retries exhausted on a live channel — only reachable when a message
    aged out of the bounded retransmission log, which a lockstep exchange
    never provokes. *)

(** Fetch the next in-sequence message of channel (src, dst, tag),
    tolerating the full {!Faultplan.t} fault repertoire:

    + stale duplicates are discarded by sequence number;
    + a missing message is treated as a timeout against the substrate's
      virtual clock: the receiver backs off exponentially (advancing the
      clock, which releases delayed messages) and requests a bounded
      number of retransmissions from the sender's log;
    + if the sender turns out to be dead, [Rank_crashed] aborts the
      exchange so the driver can roll back to the last checkpoint.

    Exactly-once, in-order delivery: under any plan without a crash this
    returns precisely the payloads the fault-free run would see, in the
    same order — which is what makes faulty runs bitwise identical. *)
(* Drive a posted request to completion, translating the substrate's
   healing outcome into this module's exception vocabulary and accounting
   for in-place fault healing. *)
let await ?max_retries comm ~src ~dst ~tag req =
  match Mpisim.wait ?max_retries comm req with
  | `Done retries ->
    if retries > 0 then begin
      Obs.Metrics.count "net.faults_healed" 1;
      Obs.Span.instant ~cat:"comm"
        ~args:[ ("retries", float_of_int retries) ]
        (Printf.sprintf "healed:%d->%d tag %d" src dst tag)
    end;
    Mpisim.payload req
  | `Crashed r -> raise (Rank_crashed r)
  | `Lost key -> raise (Exchange_failed key)

let fetch ?max_retries comm ~src ~dst ~tag =
  await ?max_retries comm ~src ~dst ~tag (Mpisim.irecv comm ~src ~dst ~tag)

(* ------------------------------------------------------------------ *)
(* Slab exchange                                                       *)
(* ------------------------------------------------------------------ *)

(** Pack-and-send one slab (sequence number assigned by the substrate).
    Sends are eager, so this is also the post of a nonblocking send. *)
let send_slab comm ~src ~dst ~tag buf ~axis ~side =
  Mpisim.send comm ~src ~dst ~tag (pack buf ~axis ~side)

(** A pending slab receive: the request plus where to unpack it. *)
type pending = {
  req : Mpisim.request;
  p_src : int;
  p_dst : int;
  p_tag : int;
  p_buf : Vm.Buffer.t;
  p_axis : int;
  p_side : side;
}

(** Post a slab receive without consuming anything. *)
let irecv_slab comm ~src ~dst ~tag buf ~axis ~side =
  { req = Mpisim.irecv comm ~src ~dst ~tag; p_src = src; p_dst = dst;
    p_tag = tag; p_buf = buf; p_axis = axis; p_side = side }

(** Complete a pending slab receive through the self-healing protocol and
    unpack it into the ghost layer.  Awaiting right after posting is the
    blocking receive; awaiting later overlaps it (paper §7). *)
let await_slab ?max_retries comm pending =
  unpack pending.p_buf ~axis:pending.p_axis ~side:pending.p_side
    (await ?max_retries comm ~src:pending.p_src ~dst:pending.p_dst
       ~tag:pending.p_tag pending.req)

let () =
  Printexc.register_printer (function
    | Rank_crashed r -> Some (Printf.sprintf "Ghost.Rank_crashed: rank %d is dead" r)
    | Exchange_failed (src, dst, tag) ->
      Some
        (Printf.sprintf
           "Ghost.Exchange_failed: retries exhausted waiting for rank %d -> rank %d, tag %d"
           src dst tag)
    | _ -> None)
