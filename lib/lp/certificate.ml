let tol = 1e-6

exception Violated of string

let check ~cost ~(rows : Simplex.row array) ~x ~y =
  let violated fmt = Printf.ksprintf (fun s -> raise (Violated s)) fmt in
  let n = Array.length cost in
  try
    if Array.length x <> n || Array.length y <> Array.length rows then
      violated "dimension mismatch: %d costs, %d x, %d rows, %d y" n
        (Array.length x) (Array.length rows) (Array.length y);
    Array.iteri
      (fun j v -> if v < -.tol then violated "primal feasibility: x%d = %g < 0" j v)
      x;
    (* Reduced costs c - Aᵀy and the magnitude of each sum, for scale. *)
    let rc = Array.copy cost and rc_mag = Array.map abs_float cost in
    let by = ref 0.0 and by_mag = ref 0.0 in
    Array.iteri
      (fun i { Simplex.terms; sense; rhs } ->
        let act = ref 0.0 and mag = ref (abs_float rhs) in
        List.iter
          (fun (a, j) ->
            act := !act +. (a *. x.(j));
            mag := !mag +. abs_float (a *. x.(j));
            rc.(j) <- rc.(j) -. (y.(i) *. a);
            rc_mag.(j) <- rc_mag.(j) +. abs_float (y.(i) *. a))
          terms;
        let excess = !act -. rhs and lim = tol *. (1.0 +. !mag) in
        (match sense with
        | Simplex.Le ->
          if excess > lim then violated "primal feasibility: row %d exceeds its <= rhs by %g" i excess;
          if y.(i) > tol then violated "dual sign: y%d = %g > 0 on a <= row" i y.(i)
        | Simplex.Ge ->
          if excess < -.lim then violated "primal feasibility: row %d falls %g short of its >= rhs" i (-.excess);
          if y.(i) < -.tol then violated "dual sign: y%d = %g < 0 on a >= row" i y.(i)
        | Simplex.Eq ->
          if abs_float excess > lim then violated "primal feasibility: row %d misses its = rhs by %g" i excess);
        by := !by +. (rhs *. y.(i));
        by_mag := !by_mag +. abs_float (rhs *. y.(i)))
      rows;
    Array.iteri
      (fun j r ->
        if r < -.tol *. (1.0 +. rc_mag.(j)) then
          violated "dual feasibility: reduced cost of x%d = %g < 0" j r)
      rc;
    let cx = ref 0.0 and cx_mag = ref 0.0 in
    Array.iteri
      (fun j c ->
        cx := !cx +. (c *. x.(j));
        cx_mag := !cx_mag +. abs_float (c *. x.(j)))
      cost;
    if abs_float (!cx -. !by) > tol *. (1.0 +. !cx_mag +. !by_mag) then
      violated "duality gap: c'x = %.17g but b'y = %.17g" !cx !by;
    Ok ()
  with Violated s -> Error s
