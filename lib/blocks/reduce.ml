(** Cross-rank deterministic reductions for block forests.

    Every value here is {!Lockstep.scalar} over the forest's block set:
    per-rank partials from [Vm.Reduce.block_partial] (pooled, tiled) are
    exact, so however they merge over the recursive-halving rank tree, each
    scalar is bitwise identical for any decomposition, and identical to the
    serial single-block reference ([Pfcore.Diag]). *)

(** Deterministic scalar reduction of one field over a whole forest.
    Each rank reduces its block with its own pool and tile configuration
    (overridable) — exact partials make those choices invisible in the
    result. *)
let forest_scalar ?num_domains ?tile (t : Forest.t) field cellfn op =
  Lockstep.scalar ?num_domains ?tile t.Forest.blocks field cellfn op

(** Volume-weighted phase fractions of the forest's φ source field,
    bitwise reproducible across any decomposition. *)
let phase_fractions ?num_domains ?tile (t : Forest.t) =
  Lockstep.phase_fractions ?num_domains ?tile t.Forest.blocks

(** Fraction of cells in the interface band (any φ component strictly
    inside (0.01, 0.99)), exactly counted.  Every executor's blocks are
    read from the same storage, so [backend] (which the benchmark harness
    passes) selects nothing. *)
let interface_fraction ?backend:(_ : Vm.Engine.backend option) ?num_domains ?tile (t : Forest.t) =
  Lockstep.interface_fraction ?num_domains ?tile t.Forest.blocks
