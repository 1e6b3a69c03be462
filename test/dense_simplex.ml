(* The dense two-phase tableau simplex the sparse revised engine
   replaced, kept as a test oracle.  Cold path only, same column layout
   (structural, slack/surplus, artificial), same pivot rules as
   [Lp.Simplex]: two-pass Dantzig pricing within a relative 1e-11,
   two-pass ratio test within a relative 1e-9 broken by the smallest
   basic column, zero-snap of basic values after every pivot,
   drive-out of basic artificials in column-index order, and the Bland
   switch after 1,000 degenerate pivots.  Under those rules both
   engines take the same pivot path, which [on_pivot] exposes. *)

type result = Optimal of float array | Infeasible | Unbounded

let eps = 1e-9
let price_tol = 1e-11

(* [a] has [m] constraint rows and one objective row (index m).
   Columns [0, width) are variables, column [width] is the RHS.  The
   objective row holds reduced costs, and its RHS holds the negated
   objective value. *)
type tableau = {
  a : float array array;
  m : int;
  width : int;
  basis : int array;
  snap : float;
}

let pivot t ~row ~col =
  let a = t.a in
  let arow = a.(row) in
  let inv = 1.0 /. arow.(col) in
  for j = 0 to t.width do
    arow.(j) <- arow.(j) *. inv
  done;
  for i = 0 to t.m do
    if i <> row then begin
      let f = a.(i).(col) in
      if f <> 0.0 then begin
        let ai = a.(i) in
        for j = 0 to t.width do
          ai.(j) <- ai.(j) -. (f *. arow.(j))
        done
      end
    end
  done;
  for i = 0 to t.m - 1 do
    if abs_float a.(i).(t.width) < t.snap then a.(i).(t.width) <- 0.0
  done;
  t.basis.(row) <- col

let entering t ~bland ~allowed =
  let obj = t.a.(t.m) in
  let first_below v =
    let rec find j =
      if j >= t.width then None
      else if allowed j && obj.(j) < -.eps && obj.(j) <= v then Some j
      else find (j + 1)
    in
    find 0
  in
  if bland then first_below infinity
  else begin
    let best_v = ref (-.eps) in
    for j = 0 to t.width - 1 do
      if allowed j && obj.(j) < !best_v then best_v := obj.(j)
    done;
    if !best_v = -.eps then None
    else first_below (!best_v +. (price_tol *. Float.max 1.0 (abs_float !best_v)))
  end

let leaving t ~col =
  let ratio i = t.a.(i).(t.width) /. t.a.(i).(col) in
  let min_ratio = ref infinity in
  for i = 0 to t.m - 1 do
    if t.a.(i).(col) > eps then min_ratio := Float.min !min_ratio (ratio i)
  done;
  if !min_ratio = infinity then None
  else begin
    let bound = !min_ratio +. (eps *. Float.max 1.0 (abs_float !min_ratio)) in
    let best = ref (-1) in
    for i = 0 to t.m - 1 do
      if
        t.a.(i).(col) > eps
        && ratio i <= bound
        && (!best = -1 || t.basis.(i) < t.basis.(!best))
      then best := i
    done;
    Some !best
  end

exception Unbounded_lp

let optimise t ~count ~allowed ~on_pivot =
  let degenerate_streak = ref 0 in
  let bland = ref false in
  let continue = ref true in
  while !continue do
    match entering t ~bland:!bland ~allowed with
    | None -> continue := false
    | Some col -> (
      match leaving t ~col with
      | None -> raise Unbounded_lp
      | Some row ->
        if t.a.(row).(t.width) /. t.a.(row).(col) < eps then begin
          incr degenerate_streak;
          if !degenerate_streak > 1000 then bland := true
        end
        else degenerate_streak := 0;
        incr count;
        on_pivot ~enter:col ~leave:t.basis.(row);
        pivot t ~row ~col)
  done

(* [solve ~cost ~rows] on the sparse rows [Lp.Simplex] takes; returns
   the outcome and the (phase-1 plus drive-out, phase-2) pivot counts. *)
let solve ?(on_pivot = fun ~enter:_ ~leave:_ -> ()) ~cost
    ~(rows : Lp.Simplex.row array) () =
  let n = Array.length cost and m = Array.length rows in
  let norm =
    Array.map
      (fun { Lp.Simplex.terms; sense; rhs } ->
        let coefs = Array.make n 0.0 in
        List.iter (fun (c, v) -> coefs.(v) <- coefs.(v) +. c) terms;
        if rhs < 0.0 then
          ( Array.map (fun c -> -.c) coefs,
            (match sense with
            | Lp.Simplex.Le -> Lp.Simplex.Ge
            | Ge -> Le
            | Eq -> Eq),
            -.rhs )
        else (coefs, sense, rhs))
      rows
  in
  let count p = Array.fold_left (fun k (_, s, _) -> if p s then k + 1 else k) 0 norm in
  let slacks = count (fun s -> s <> Lp.Simplex.Eq)
  and artificials = count (fun s -> s <> Lp.Simplex.Le) in
  let art_first = n + slacks in
  let width = art_first + artificials in
  let a = Array.make_matrix (m + 1) (width + 1) 0.0 in
  let basis = Array.make m (-1) in
  let slack_col = ref n and art_col = ref art_first in
  Array.iteri
    (fun i (coefs, sense, rhs) ->
      Array.blit coefs 0 a.(i) 0 n;
      a.(i).(width) <- rhs;
      let add_art () =
        a.(i).(!art_col) <- 1.0;
        basis.(i) <- !art_col;
        incr art_col
      in
      match sense with
      | Lp.Simplex.Le ->
        a.(i).(!slack_col) <- 1.0;
        basis.(i) <- !slack_col;
        incr slack_col
      | Ge ->
        a.(i).(!slack_col) <- -1.0;
        incr slack_col;
        add_art ()
      | Eq -> add_art ())
    norm;
  let snap =
    1e-13 *. Array.fold_left (fun acc (_, _, rhs) -> Float.max acc rhs) 1.0 norm
  in
  let t = { a; m; width; basis; snap } in
  let is_artificial j = j >= art_first in
  let pivots = ref 0 and phase1_pivots = ref 0 in
  let outcome =
    try
      if artificials > 0 then begin
        for j = art_first to width - 1 do
          a.(m).(j) <- 1.0
        done;
        for i = 0 to m - 1 do
          if is_artificial basis.(i) then
            for j = 0 to width do
              a.(m).(j) <- a.(m).(j) -. a.(i).(j)
            done
        done;
        optimise t ~count:phase1_pivots ~allowed:(fun _ -> true) ~on_pivot;
        if -.a.(m).(width) > 1e-6 then raise Exit
      end;
      List.filter (fun i -> is_artificial basis.(i)) (List.init m Fun.id)
      |> List.sort (fun i k -> compare basis.(i) basis.(k))
      |> List.iter (fun i ->
             let col = ref (-1) in
             for j = art_first - 1 downto 0 do
               if abs_float a.(i).(j) > eps then col := j
             done;
             if !col >= 0 then begin
               incr phase1_pivots;
               on_pivot ~enter:!col ~leave:basis.(i);
               pivot t ~row:i ~col:!col
             end);
      for j = 0 to width do
        a.(m).(j) <- 0.0
      done;
      Array.blit cost 0 a.(m) 0 n;
      for i = 0 to m - 1 do
        let b = basis.(i) in
        if b < n && cost.(b) <> 0.0 then begin
          let f = cost.(b) in
          for j = 0 to width do
            a.(m).(j) <- a.(m).(j) -. (f *. a.(i).(j))
          done
        end
      done;
      optimise t ~count:pivots ~allowed:(fun j -> not (is_artificial j)) ~on_pivot;
      let values = Array.make n 0.0 in
      for i = 0 to m - 1 do
        if basis.(i) < n then values.(basis.(i)) <- a.(i).(width)
      done;
      Array.iteri (fun j v -> if v < 0.0 && v > -1e-7 then values.(j) <- 0.0) values;
      Optimal values
    with
    | Exit -> Infeasible
    | Unbounded_lp -> Unbounded
  in
  (outcome, !phase1_pivots, !pivots)
