type sense = Le | Ge | Eq

type row = { terms : (float * int) list; sense : sense; rhs : float }

type result =
  | Optimal of { x : float array; y : float array }
  | Infeasible
  | Unbounded

(* An exported optimal basis: the layout signature of the problem it
   came from (variable count and per-row normalised senses — these fix
   the slack/artificial column assignment) plus its set of basic
   columns.  Importing it into a compatible perturbed problem skips
   phase 1 entirely. *)
type basis = {
  b_n : int;
  b_senses : sense array;
  b_cols : int array;
}

type stats = {
  pivots : int;          (* phase-2 pivots performed by this call *)
  phase1_pivots : int;   (* phase-1 and drive-out pivots, not in [pivots] *)
  warm_used : bool;      (* the warm basis carried the solve to optimality *)
  fallback : bool;       (* a warm basis was supplied but the cold
                            two-phase path had to run *)
}

let eps = 1e-9
let price_tol = 1e-11
let refactor_period = 64
let iteration_cap = 2_000_000

(* The normalised problem in compressed sparse columns.  Rows with a
   negative RHS are negated (flipping Le/Ge), so [b >= 0].  Columns
   [0, n) are structural, then one slack/surplus per inequality row,
   then one artificial per Ge/Eq row; a logical column holds a single
   ±1 entry in its own row. *)
type lp = {
  m : int;
  n : int;
  width : int;
  art_first : int;
  cstart : int array; (* width + 1 offsets into [crow]/[cval] *)
  crow : int array;
  cval : float array;
  b : float array;
  logical : int array; (* the cold-start basis, which is the identity:
                          each Le row's slack, each Ge/Eq row's
                          artificial *)
}

let normalise rows =
  Array.map
    (fun r ->
      if r.rhs < 0.0 then
        ( -1.0,
          (match r.sense with Le -> Ge | Ge -> Le | Eq -> Eq),
          -.r.rhs )
      else (1.0, r.sense, r.rhs))
    rows

let build_lp ~n rows norm =
  let m = Array.length rows in
  let count = Array.make (n + (2 * m) + 1) 0 in
  Array.iter
    (fun r ->
      List.iter
        (fun (_, j) ->
          if j < 0 || j >= n then invalid_arg "Simplex.solve: variable out of range";
          count.(j) <- count.(j) + 1)
        r.terms)
    rows;
  let slacks = ref 0 and artificials = ref 0 in
  Array.iter
    (fun (_, sense, _) ->
      match sense with
      | Le -> incr slacks
      | Ge -> incr slacks; incr artificials
      | Eq -> incr artificials)
    norm;
  let art_first = n + !slacks in
  let width = art_first + !artificials in
  for j = n to width - 1 do
    count.(j) <- 1
  done;
  let cstart = Array.make (width + 1) 0 in
  for j = 0 to width - 1 do
    cstart.(j + 1) <- cstart.(j) + count.(j)
  done;
  let nnz = cstart.(width) in
  let crow = Array.make nnz 0 and cval = Array.make nnz 0.0 in
  let fill = Array.sub cstart 0 width in
  let put j i v =
    crow.(fill.(j)) <- i;
    cval.(fill.(j)) <- v;
    fill.(j) <- fill.(j) + 1
  in
  let slack = ref n and art = ref art_first in
  let logical =
    Array.mapi
      (fun i r ->
        let sign, sense, _ = norm.(i) in
        List.iter (fun (a, j) -> put j i (sign *. a)) r.terms;
        let next col v =
          put !col i v;
          incr col;
          !col - 1
        in
        match sense with
        | Le -> next slack 1.0
        | Ge -> ignore (next slack (-1.0)); next art 1.0
        | Eq -> next art 1.0)
      rows
  in
  {
    m; n; width; art_first; cstart; crow; cval;
    b = Array.map (fun (_, _, rhs) -> rhs) norm;
    logical;
  }

(* Product-form basis inverse: B⁻¹ = E_k ⋯ E_1, each E_e the identity
   with column [pos.(e)] replaced by the eta column of an FTRANed
   entering column (pivot [1/inv.(e)], off-pivot entries in
   [idx]/[v] between [start.(e)] and [start.(e+1)]).  The arrays grow
   by doubling and are reused across refactorisations. *)
type etas = {
  mutable k : int;
  mutable pos : int array;
  mutable inv : float array;
  mutable start : int array;
  mutable idx : int array;
  mutable v : float array;
}

let grow a len fill =
  let b = Array.make (Stdlib.max len (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let push_eta e ~p ~inv (d : float array) =
  let k = e.k in
  if k + 1 >= Array.length e.pos then begin
    e.pos <- grow e.pos (k + 2) 0;
    e.inv <- grow e.inv (k + 2) 0.0;
    e.start <- grow e.start (k + 2) 0
  end;
  let top = e.start.(k) in
  if top + Array.length d > Array.length e.idx then begin
    e.idx <- grow e.idx (top + Array.length d) 0;
    e.v <- grow e.v (top + Array.length d) 0.0
  end;
  let q = ref top in
  for i = 0 to Array.length d - 1 do
    if i <> p && d.(i) <> 0.0 then begin
      e.idx.(!q) <- i;
      e.v.(!q) <- d.(i);
      incr q
    end
  done;
  e.pos.(k) <- p;
  e.inv.(k) <- inv;
  e.start.(k + 1) <- !q;
  e.k <- k + 1

(* w := B⁻¹ w, with the dense tableau's update order: the pivot entry
   is scaled by 1/pivot, then subtracted from the others. *)
let ftran e (w : float array) =
  for k = 0 to e.k - 1 do
    let r = e.pos.(k) in
    let wr = w.(r) *. e.inv.(k) in
    w.(r) <- wr;
    if wr <> 0.0 then
      for q = e.start.(k) to e.start.(k + 1) - 1 do
        let i = e.idx.(q) in
        w.(i) <- w.(i) -. (e.v.(q) *. wr)
      done
  done

(* yᵀ := yᵀ B⁻¹ *)
let btran e (y : float array) =
  for k = e.k - 1 downto 0 do
    let r = e.pos.(k) in
    let s = ref y.(r) in
    for q = e.start.(k) to e.start.(k + 1) - 1 do
      s := !s -. (e.v.(q) *. y.(e.idx.(q)))
    done;
    y.(r) <- !s *. e.inv.(k)
  done

type state = {
  lp : lp;
  basis : int array;  (* basic column at each position *)
  where : int array;  (* position of each column, -1 when nonbasic *)
  xb : float array;   (* basic values, by position *)
  etas : etas;
  d : float array;    (* FTRANed entering column *)
  y : float array;    (* duals of the last pricing, by row *)
  dj : float array;   (* reduced costs of the last pricing *)
  snap : float;       (* basic values below this magnitude are exactly 0 *)
  mutable since_refactor : int;
}

let load_column st j (w : float array) =
  Array.fill w 0 (Array.length w) 0.0;
  let lp = st.lp in
  for q = lp.cstart.(j) to lp.cstart.(j + 1) - 1 do
    w.(lp.crow.(q)) <- w.(lp.crow.(q)) +. lp.cval.(q)
  done;
  ftran st.etas w

(* Rebuild the eta file for the current basic column set.  Logical
   columns stay in their own rows; the others are pivoted in sparsest
   first, each at the free position with the largest magnitude (partial
   pivoting).  Positions are reassigned, [xb] is left stale for the
   caller.  [false] when no pivot above [tol] is left (singular). *)
let factorize st ~tol =
  let lp = st.lp and m = st.lp.m in
  let cols = Array.copy st.basis in
  Array.sort compare cols;
  Array.iter (fun c -> st.where.(c) <- -1) cols;
  Array.fill st.basis 0 m (-1);
  st.etas.k <- 0;
  let place p c =
    st.basis.(p) <- c;
    st.where.(c) <- p
  in
  let rest = ref [] in
  Array.iter
    (fun c ->
      let home = if c >= lp.n then lp.crow.(lp.cstart.(c)) else -1 in
      if home >= 0 && st.basis.(home) = -1 then begin
        place home c;
        let v = lp.cval.(lp.cstart.(c)) in
        if v <> 1.0 then begin
          Array.fill st.d 0 m 0.0;
          push_eta st.etas ~p:home ~inv:(1.0 /. v) st.d
        end
      end
      else rest := c :: !rest)
    cols;
  let nnz c = lp.cstart.(c + 1) - lp.cstart.(c) in
  let rest =
    List.sort
      (fun a c -> if nnz a <> nnz c then compare (nnz a) (nnz c) else compare a c)
      !rest
  in
  let rec pivot_in = function
    | [] -> true
    | c :: more ->
      load_column st c st.d;
      let best = ref (-1) and best_v = ref tol in
      for p = 0 to m - 1 do
        if st.basis.(p) = -1 && abs_float st.d.(p) > !best_v then begin
          best := p;
          best_v := abs_float st.d.(p)
        end
      done;
      if !best = -1 then false
      else begin
        push_eta st.etas ~p:!best ~inv:(1.0 /. st.d.(!best)) st.d;
        place !best c;
        pivot_in more
      end
  in
  let ok = pivot_in rest in
  st.since_refactor <- 0;
  ok

let snap_values st =
  for p = 0 to st.lp.m - 1 do
    if abs_float st.xb.(p) < st.snap then st.xb.(p) <- 0.0
  done

(* Periodic refactorisation inside a solve: the basic values carry over
   by column, so the pivot path does not see it. *)
let refactor st =
  let m = st.lp.m in
  let by_col = Array.init m (fun p -> (st.basis.(p), st.xb.(p))) in
  if not (factorize st ~tol:eps) then failwith "Simplex: singular basis";
  Array.iter (fun (c, v) -> st.xb.(st.where.(c)) <- v) by_col

(* Replace the basic column at position [r] by column [q], whose FTRAN
   is in [st.d]. *)
let pivot st ~r ~q =
  let d = st.d and xb = st.xb in
  let inv = 1.0 /. d.(r) in
  let theta = xb.(r) *. inv in
  for p = 0 to st.lp.m - 1 do
    if p <> r && d.(p) <> 0.0 then xb.(p) <- xb.(p) -. (d.(p) *. theta)
  done;
  xb.(r) <- theta;
  (* Zero-snap: rounding residue on a degenerate row would otherwise
     decide later ratio-test ties. *)
  snap_values st;
  push_eta st.etas ~p:r ~inv d;
  st.where.(st.basis.(r)) <- -1;
  st.basis.(r) <- q;
  st.where.(q) <- r;
  st.since_refactor <- st.since_refactor + 1;
  if st.since_refactor >= refactor_period then refactor st

(* Duals for costs [c] (one BTRAN), then the reduced costs of the
   nonbasic columns in [0, limit). *)
let price st ~(c : float array) ~limit =
  let lp = st.lp in
  for p = 0 to lp.m - 1 do
    st.y.(p) <- c.(st.basis.(p))
  done;
  btran st.etas st.y;
  for j = 0 to limit - 1 do
    if st.where.(j) >= 0 then st.dj.(j) <- 0.0
    else begin
      let s = ref c.(j) in
      for q = lp.cstart.(j) to lp.cstart.(j + 1) - 1 do
        s := !s -. (st.y.(lp.crow.(q)) *. lp.cval.(q))
      done;
      st.dj.(j) <- !s
    end
  done

(* Entering column: Dantzig unless [bland].  Dantzig takes two passes
   so that rounding noise cannot pick among tied candidates: find the
   minimum reduced cost, then the lowest index within a relative
   [price_tol] of it enters. *)
let entering st ~c ~limit ~bland =
  price st ~c ~limit;
  let dj = st.dj in
  let first_below v =
    let rec find j =
      if j >= limit then None
      else if dj.(j) < -.eps && dj.(j) <= v then Some j
      else find (j + 1)
    in
    find 0
  in
  if bland then first_below infinity
  else begin
    let best_v = ref (-.eps) in
    for j = 0 to limit - 1 do
      if dj.(j) < !best_v then best_v := dj.(j)
    done;
    if !best_v = -.eps then None
    else first_below (!best_v +. (price_tol *. Float.max 1.0 (abs_float !best_v)))
  end

(* Leaving position, in two passes like pricing: the minimum ratio over
   coefficients > [eps], then the smallest basic column index among the
   positions within a relative [eps] of it (lexicographic enough for
   Bland's rule to terminate). *)
let leaving st =
  let d = st.d and xb = st.xb and m = st.lp.m in
  let min_ratio = ref infinity in
  for p = 0 to m - 1 do
    if d.(p) > eps && xb.(p) /. d.(p) < !min_ratio then
      min_ratio := xb.(p) /. d.(p)
  done;
  if !min_ratio = infinity then None
  else begin
    let bound = !min_ratio +. (eps *. Float.max 1.0 (abs_float !min_ratio)) in
    let best = ref (-1) in
    for p = 0 to m - 1 do
      if
        d.(p) > eps
        && xb.(p) /. d.(p) <= bound
        && (!best = -1 || st.basis.(p) < st.basis.(!best))
      then best := p
    done;
    Some !best
  end

exception Unbounded_lp

(* Simplex iterations with costs [c] over the columns [0, limit) until
   no entering column remains.  [count] only observes pivots. *)
let optimise st ~c ~limit ~count ~on_pivot =
  let degenerate_streak = ref 0 in
  let bland = ref false in
  let iter = ref 0 in
  let continue = ref true in
  while !continue do
    incr iter;
    if !iter > iteration_cap then failwith "Simplex: iteration cap exceeded";
    match entering st ~c ~limit ~bland:!bland with
    | None -> continue := false
    | Some q -> (
      load_column st q st.d;
      match leaving st with
      | None -> raise Unbounded_lp
      | Some r ->
        if st.xb.(r) /. st.d.(r) < eps then begin
          incr degenerate_streak;
          if !degenerate_streak > 1000 then bland := true
        end
        else degenerate_streak := 0;
        incr count;
        on_pivot ~enter:q ~leave:st.basis.(r);
        pivot st ~r ~q)
  done

let no_trace ~enter:_ ~leave:_ = ()

let solve_ext ?warm_basis ?(on_pivot = no_trace) ~cost ~rows () =
  let n = Array.length cost in
  let norm = normalise rows in
  let lp = build_lp ~n rows norm in
  let m = lp.m and width = lp.width and art_first = lp.art_first in
  let senses = Array.map (fun (_, sense, _) -> sense) norm in
  let st =
    {
      lp;
      basis = Array.make m 0;
      where = Array.make width (-1);
      xb = Array.copy lp.b;
      etas =
        {
          k = 0;
          pos = Array.make (m + refactor_period + 1) 0;
          inv = Array.make (m + refactor_period + 1) 0.0;
          start = Array.make (m + refactor_period + 1) 0;
          idx = Array.make (4 * (Array.length lp.crow + m)) 0;
          v = Array.make (4 * (Array.length lp.crow + m)) 0.0;
        };
      d = Array.make m 0.0;
      y = Array.make m 0.0;
      dj = Array.make width 0.0;
      snap = 1e-13 *. Array.fold_left Float.max 1.0 lp.b;
      since_refactor = 0;
    }
  in
  let set_basis cols =
    Array.fill st.where 0 width (-1);
    Array.iteri
      (fun p c ->
        st.basis.(p) <- c;
        st.where.(c) <- p)
      cols
  in
  let pivots = ref 0 and phase1_pivots = ref 0 in
  let phase2_cost = Array.make width 0.0 in
  Array.blit cost 0 phase2_cost 0 n;
  (* Phase 2 over the current basis with artificial columns barred from
     entering; shared by both paths.  The duals are those of the final
     pricing, mapped back to the caller's row signs. *)
  let phase2 () =
    optimise st ~c:phase2_cost ~limit:art_first ~count:pivots ~on_pivot;
    let x = Array.make n 0.0 in
    for p = 0 to m - 1 do
      if st.basis.(p) < n then x.(st.basis.(p)) <- st.xb.(p)
    done;
    (* Clamp the tiny negatives numerical noise can leave behind. *)
    Array.iteri (fun j v -> if v < 0.0 && v > -1e-7 then x.(j) <- 0.0) x;
    let y = Array.mapi (fun i (sign, _, _) -> sign *. st.y.(i)) norm in
    ( Optimal { x; y },
      Some { b_n = n; b_senses = senses; b_cols = Array.copy st.basis } )
  in
  (* ---- Warm path: factorise the imported columns, verify primal
     feasibility, run phase 2 only.  Any doubt — layout mismatch,
     singular basis, infeasible or inconsistent RHS, unboundedness
     claimed from the warm basis — abandons the attempt and reruns the
     authoritative cold two-phase path, so a warm answer is only ever
     an optimum the cold path would also have reached. *)
  let try_warm b =
    let distinct cols =
      let s = Array.copy cols in
      Array.sort compare s;
      let ok = ref true in
      for i = 1 to Array.length s - 1 do
        if s.(i) = s.(i - 1) then ok := false
      done;
      !ok
    in
    if
      b.b_n <> n || m = 0 || n = 0
      || b.b_senses <> senses
      || Array.length b.b_cols <> m
      || Array.exists (fun c -> c < 0 || c >= width) b.b_cols
      || not (distinct b.b_cols)
    then None
    else begin
      set_basis b.b_cols;
      if not (factorize st ~tol:1e-7) then None
      else begin
        Array.blit lp.b 0 st.xb 0 m;
        ftran st.etas st.xb;
        snap_values st;
        (* An artificial kept basic by the exporter (redundant row)
           must still carry value ~0, or the perturbed row is
           inconsistent. *)
        let feasible = ref true in
        for p = 0 to m - 1 do
          let v = st.xb.(p) in
          if st.basis.(p) >= art_first then begin
            if abs_float v > 1e-7 then feasible := false
          end
          else if v < -1e-7 then feasible := false
          else if v < 0.0 then st.xb.(p) <- 0.0
        done;
        if not !feasible then None
        else match phase2 () with r -> Some r | exception Unbounded_lp -> None
      end
    end
  in
  let warm = match warm_basis with None -> None | Some b -> try_warm b in
  match warm with
  | Some (outcome, basis) ->
    ( outcome,
      { pivots = !pivots; phase1_pivots = !phase1_pivots; warm_used = true;
        fallback = false },
      basis )
  | None ->
    let stats () =
      { pivots = !pivots; phase1_pivots = !phase1_pivots; warm_used = false;
        fallback = warm_basis <> None }
    in
    (* ---- Cold path. *)
    set_basis lp.logical;
    st.etas.k <- 0;
    st.since_refactor <- 0;
    Array.blit lp.b 0 st.xb 0 m;
    let cold () =
      (* ---- Phase 1: minimise the artificial sum. ---- *)
      if art_first < width then begin
        let c = Array.init width (fun j -> if j >= art_first then 1.0 else 0.0) in
        (try optimise st ~c ~limit:width ~count:phase1_pivots ~on_pivot
         with Unbounded_lp -> failwith "Simplex: phase 1 cannot be unbounded");
        let infeasibility = ref 0.0 in
        for p = 0 to m - 1 do
          if st.basis.(p) >= art_first then
            infeasibility := !infeasibility +. st.xb.(p)
        done;
        if !infeasibility > 1e-6 then raise Exit
      end;
      (* Drive the zero-valued basic artificials out of the basis, in
         column-index order: the first real column with a nonzero
         entry in the artificial's row of B⁻¹A enters.  An artificial
         with no such column sits on a redundant row and stays basic
         at ~0; phase 2 never lets artificials enter, so its value can
         only change through pivots in that row, which the ratio test
         performs only at ratio 0. *)
      let arts =
        List.init (width - art_first) (( + ) art_first)
        |> List.filter (fun c -> st.where.(c) >= 0)
      in
      let rho = Array.make m 0.0 in
      List.iter
        (fun a ->
          let p = st.where.(a) in
          Array.fill rho 0 m 0.0;
          rho.(p) <- 1.0;
          btran st.etas rho;
          let entry j =
            let s = ref 0.0 in
            for q = lp.cstart.(j) to lp.cstart.(j + 1) - 1 do
              s := !s +. (rho.(lp.crow.(q)) *. lp.cval.(q))
            done;
            !s
          in
          let rec first j =
            if j >= art_first then None
            else if st.where.(j) < 0 && abs_float (entry j) > eps then Some j
            else first (j + 1)
          in
          match first 0 with
          | None -> ()
          | Some q ->
            load_column st q st.d;
            incr phase1_pivots;
            on_pivot ~enter:q ~leave:a;
            pivot st ~r:p ~q)
        arts;
      (* ---- Phase 2: real objective. ---- *)
      match phase2 () with
      | outcome, basis -> (outcome, stats (), basis)
      | exception Unbounded_lp -> (Unbounded, stats (), None)
    in
    (try cold () with Exit -> (Infeasible, stats (), None))

let solve ~cost ~rows =
  let outcome, _, _ = solve_ext ~cost ~rows () in
  outcome
