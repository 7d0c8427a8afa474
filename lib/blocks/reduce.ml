(** The interface fraction of a uniform forest ({!Run.interface_fraction}),
    kept under this name for the benchmark harness.  Every executor's
    blocks are read from the same storage, so [backend] (which the
    harness passes) selects nothing. *)
let interface_fraction ?backend:(_ : Vm.Engine.backend option) ?num_domains ?tile (t : Forest.t) =
  Run.interface_fraction ?num_domains ?tile (Run.Forest t)
