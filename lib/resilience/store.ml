(** Bounded in-memory checkpoint store.

    Keeps the most recent [capacity] checkpoints (newest first), so the
    recovery driver can roll back to the latest consistent state without
    unbounded memory growth on long runs.  Generic over the checkpoint:
    a uniform forest's {!Snapshot.t}, an adaptive forest's
    {!Snapshot.adaptive}. *)

type 'a t = { capacity : int; mutable snaps : 'a list }

let create ?(capacity = 4) () =
  if capacity < 1 then invalid_arg "Store.create: capacity must be positive";
  { capacity; snaps = [] }

let put t snap =
  t.snaps <- snap :: t.snaps;
  if List.length t.snaps > t.capacity then
    t.snaps <- List.filteri (fun i _ -> i < t.capacity) t.snaps

let latest t = match t.snaps with [] -> None | s :: _ -> Some s
let count t = List.length t.snaps
let clear t = t.snaps <- []
