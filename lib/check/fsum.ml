(** Independent exact-sum reference for the reduction layer: Shewchuk's
    expansion sum with the half-even correction of Python's [math.fsum]
    (Shewchuk 1997; CPython's [msum]).  It shares nothing with
    [Vm.Reduce]'s integer limbs: the running sum is a list of
    non-overlapping doubles, and the result is their correctly rounded
    total.  An intermediate overflow raises; non-finite values sum by IEEE
    rules apart, and a NaN result is the canonical NaN, as
    [Vm.Reduce.finish] gives it. *)

let sum (xs : float array) =
  let special = ref 0. and partials = ref [] (* increasing magnitude *) in
  Array.iter
    (fun x ->
      if not (Float.is_finite x) then special := !special +. x
      else begin
        let x = ref x in
        let kept =
          List.fold_left
            (fun kept y ->
              let a, b = if Float.abs !x < Float.abs y then (y, !x) else (!x, y) in
              let hi = a +. b in
              let lo = b -. (hi -. a) in
              x := hi;
              if lo <> 0. then lo :: kept else kept)
            [] !partials
        in
        if not (Float.is_finite !x) then invalid_arg "Fsum.sum: intermediate overflow";
        partials := List.rev (!x :: kept)
      end)
    xs;
  (* add from the top down while the sum stays exact; then a tie's
     round-to-even is corrected when the partials below push past it *)
  let rec descend hi = function
    | [] -> hi
    | y :: rest -> (
      let s = hi +. y in
      let lo = y -. (s -. hi) in
      if lo = 0. then descend s rest
      else
        match rest with
        | z :: _ when (lo < 0. && z < 0.) || (lo > 0. && z > 0.) ->
          let y = lo *. 2. in
          let x = s +. y in
          if y = x -. s then x else s
        | _ -> s)
  in
  if !special <> 0. then Symbolic.Expr.canonical !special
  else match List.rev !partials with [] -> 0. | hi :: rest -> descend hi rest
