type var = int

type cmp = Simplex.sense = Le | Ge | Eq

type t = {
  mutable names : string list; (* reversed *)
  mutable n : int;
  mutable rows : Simplex.row list; (* reversed *)
  mutable m : int;
  mutable objective : (float * var) list;
}

type solution = { objective : float; values : float array }

type outcome = Optimal of solution | Infeasible | Unbounded

(* What a later solve can reuse: the optimal basis, when there was one.
   The live controller rebuilds its model for every re-solve, so
   nothing else of the old model is worth keeping. *)
type snapshot = Simplex.basis option

let create () = { names = []; n = 0; rows = []; m = 0; objective = [] }

let var t name =
  let id = t.n in
  t.n <- id + 1;
  t.names <- name :: t.names;
  id

let var_index v = v

let var_name t v =
  if v < 0 || v >= t.n then invalid_arg "Model.var_name: bad variable";
  List.nth t.names (t.n - 1 - v)

let num_vars t = t.n
let num_constraints t = t.m

let check_terms t terms =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= t.n then invalid_arg "Model: variable from another model")
    terms

(* Sum duplicate variables so each appears once per row. *)
let normalise terms =
  let tbl = Hashtbl.create (List.length terms) in
  List.iter
    (fun (c, v) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (prev +. c))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0.0 then acc else (c, v) :: acc) tbl []

let add_constraint t terms sense rhs =
  check_terms t terms;
  t.rows <- { Simplex.terms = normalise terms; sense; rhs } :: t.rows;
  t.m <- t.m + 1

(* In-place row edits.  [i] is the constraint's insertion index; the
   internal list is reversed, so position [m - 1 - i] is the target. *)
let edit_row t i f =
  if i < 0 || i >= t.m then invalid_arg "Model: bad constraint index";
  let pos = t.m - 1 - i in
  t.rows <- List.mapi (fun j r -> if j = pos then f r else r) t.rows

let set_rhs t i rhs = edit_row t i (fun r -> { r with Simplex.rhs })

let replace_constraint t i terms sense rhs =
  check_terms t terms;
  edit_row t i (fun _ -> { Simplex.terms = normalise terms; sense; rhs })

let set_objective t terms =
  check_terms t terms;
  t.objective <- normalise terms

let value sol v = sol.values.(v)

let problem t =
  let cost = Array.make t.n 0.0 in
  List.iter (fun (c, v) -> cost.(v) <- cost.(v) +. c) t.objective;
  (cost, Array.of_list (List.rev t.rows))

let solve_ext ?prev t =
  let cost, rows = problem t in
  let warm_basis = Option.join prev in
  let outcome, stats, basis = Simplex.solve_ext ?warm_basis ~cost ~rows () in
  let stats =
    (* A snapshot that could not even be offered to the engine (the
       previous solve was not optimal) is still a failed warm attempt
       from the caller's point of view. *)
    if prev <> None && not stats.Simplex.warm_used then
      { stats with Simplex.fallback = true }
    else stats
  in
  let outcome =
    match outcome with
    | Simplex.Optimal { x; y } ->
      (match Certificate.check ~cost ~rows ~x ~y with
      | Ok () -> ()
      | Error e -> failwith ("Lp.Model: optimum fails its duality certificate: " ^ e));
      let objective =
        Array.fold_left ( +. ) 0.0 (Array.mapi (fun i v -> cost.(i) *. v) x)
      in
      Optimal { objective; values = x }
    | Simplex.Infeasible -> Infeasible
    | Simplex.Unbounded -> Unbounded
  in
  (outcome, stats, basis)

let resolve t ~prev = solve_ext ~prev t

let solve t =
  let outcome, _, _ = solve_ext t in
  outcome

let pp_outcome ppf = function
  | Optimal { objective; _ } -> Format.fprintf ppf "optimal(%.6g)" objective
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
