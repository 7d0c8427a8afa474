(** Ghost-layer packing and unpacking (paper §4.3).

    Slabs are packed into contiguous buffers before sending — the same
    two-step exchange the paper implements with device-side packing kernels
    on GPUs, and, as in waLBerla, a slab is copied as whole contiguous rows
    of the field array ({!Vm.Buffer.slab_rows}), never cell by cell.
    Exchanging axis by axis, with the slab spanning the full padded extent
    of the other axes, also propagates edge and corner ghost values (needed
    by the D3C19-shaped kernels). *)

type side = Low | High

(* First cell of the slab along the exchange axis: the interior boundary
   layers a side packs, and the ghost layers it unpacks. *)
let pack_lo buf axis = function
  | Low -> 0
  | High -> buf.Vm.Buffer.dims.(axis) - buf.Vm.Buffer.ghost

let unpack_lo buf axis = function Low -> -buf.Vm.Buffer.ghost | High -> buf.Vm.Buffer.dims.(axis)

(* Cell range of the slab along the exchange axis. *)
let pack_range buf axis side =
  let lo = pack_lo buf axis side in
  (lo, lo + buf.Vm.Buffer.ghost - 1)

let unpack_range buf axis side =
  let lo = unpack_lo buf axis side in
  (lo, lo + buf.Vm.Buffer.ghost - 1)

(** Elements in one slab of [axis] (every side's slab has this size). *)
let slab_size buf axis =
  Vm.Buffer.slab_count buf ~axis * Vm.Buffer.slab_len buf ~axis ~lo:0 ~hi:(buf.Vm.Buffer.ghost - 1)

(** Copy the slab of the [side] interior boundary into [out] (of
    {!slab_size}), as the contiguous rows {!Vm.Buffer.slab_rows} lists:
    component by component, in storage order. *)
let pack_into buf ~axis ~side out =
  let lo = pack_lo buf axis side in
  Vm.Buffer.read_slab_into buf ~axis ~lo ~hi:(lo + buf.Vm.Buffer.ghost - 1) out

(** {!pack_into} a fresh array. *)
let pack buf ~axis ~side =
  let out = Array.create_float (slab_size buf axis) in
  pack_into buf ~axis ~side out;
  out

(** Store a {!pack}-shaped slab into the [side] ghost layers; [data] must
    hold exactly one slab. *)
let unpack buf ~axis ~side data =
  let lo = unpack_lo buf axis side in
  Vm.Buffer.write_slab buf ~axis ~lo ~hi:(lo + buf.Vm.Buffer.ghost - 1) data

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

(** Receive the next in-sequence message of channel [ch], tolerating the
    full {!Faultplan.t} fault repertoire:

    + stale duplicates are discarded by sequence number;
    + a missing message is treated as a timeout against the substrate's
      virtual clock: the receiver backs off exponentially (advancing the
      clock, which releases delayed messages) and requests a bounded
      number of retransmissions from the sender's log ({!Mpisim.heal});
    + if the sender turns out to be dead, [Rank_crashed] aborts the
      exchange so the driver can roll back to the last checkpoint.

    Exactly-once, in-order delivery: under any plan without a crash this
    returns precisely the payloads the fault-free run would see, in the
    same order — which is what makes faulty runs bitwise identical.  The
    fault-free receive is the first {!Mpisim.attempt} alone: no request,
    no pending record. *)
let receive ?max_retries comm (ch : Mpisim.channel) =
  match Mpisim.attempt comm ch with
  | Some p -> p
  | None -> (
    match Mpisim.heal ?max_retries comm ch with
    | `Done (p, retries) ->
      Obs.Metrics.count "net.faults_healed" 1;
      Obs.Span.instant ~cat:"comm"
        ~args:[ ("retries", float_of_int retries) ]
        (Printf.sprintf "healed:%d->%d tag %d" ch.Mpisim.src ch.Mpisim.dst ch.Mpisim.tag);
      p
    | `Crashed r -> raise (Rank_crashed r)
    | `Lost key -> raise (Exchange_failed key))

(** {!receive} on channel (src, dst, tag). *)
let fetch ?max_retries comm ~src ~dst ~tag =
  receive ?max_retries comm (Mpisim.channel comm ~src ~dst ~tag)

(* ------------------------------------------------------------------ *)
(* Slab exchange                                                       *)
(* ------------------------------------------------------------------ *)

(** Pack-and-send one slab on [ch] (sequence number assigned by the
    substrate), packed straight into the payload the send recycles
    ({!Mpisim.payload_for}).  Sends are eager, so this is also the post of
    a nonblocking send. *)
let send_slab comm ch buf ~axis ~side =
  let out = Mpisim.payload_for ch ~len:(slab_size buf axis) in
  pack_into buf ~axis ~side out;
  Mpisim.post comm ch out

(** Receive one slab on [ch] through the self-healing protocol and unpack
    it into the [side] ghost layers at once: the payload may be recycled
    by the channel's later sends. *)
let recv_slab ?max_retries comm ch buf ~axis ~side =
  unpack buf ~axis ~side (receive ?max_retries comm ch)

let () =
  Printexc.register_printer (function
    | Rank_crashed r -> Some (Printf.sprintf "Ghost.Rank_crashed: rank %d is dead" r)
    | Exchange_failed (src, dst, tag) ->
      Some
        (Printf.sprintf
           "Ghost.Exchange_failed: retries exhausted waiting for rank %d -> rank %d, tag %d"
           src dst tag)
    | _ -> None)
