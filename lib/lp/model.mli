(** Linear-program builder.

    Minimisation over non-negative variables with sparse rows — all
    the generality the paper's load-balancing formulations Eq. (1) and
    Eq. (2) require.  Build a model incrementally, then {!solve} hands
    its term lists to the sparse {!Simplex} engine.  Every [Optimal]
    answer is checked against its duality certificate
    ({!Certificate.check}) before it is returned.

    {b Incremental re-solving.}  {!solve_ext} returns a {!snapshot}
    (the optimal simplex basis); after editing the model — objective
    coefficients via {!set_objective}, RHS capacities via {!set_rhs},
    a bounded set of rows via {!replace_constraint} — or rebuilding it
    with the same layout, {!resolve} warm-starts the simplex from the
    previous basis.  Any structural change (new variables, new rows, a
    sense or RHS-sign flip) falls back to the cold path automatically;
    the outcome is always one the cold path would also produce. *)

type t

type var
(** A variable handle, valid only for the model that created it. *)

type cmp = Simplex.sense = Le | Ge | Eq

type solution = {
  objective : float;
  values : float array; (** indexed by {!var_index} *)
}

type outcome = Optimal of solution | Infeasible | Unbounded

type snapshot
(** The reusable residue of a {!solve_ext}: the final simplex basis
    when the solve was optimal.  It is portable to any model whose
    layout still matches (the cross-rebuild warm path the live
    controller uses), with the simplex engine checking compatibility
    and falling back cold otherwise. *)

val create : unit -> t

val var : t -> string -> var
(** Fresh non-negative variable.  The name is kept for debugging and
    duplicate detection is not performed. *)

val var_index : var -> int
val var_name : t -> var -> string
val num_vars : t -> int
val num_constraints : t -> int

val add_constraint : t -> (float * var) list -> cmp -> float -> unit
(** [add_constraint t terms cmp rhs] adds [Σ coef·var cmp rhs].
    Repeated variables in [terms] are summed. *)

val set_rhs : t -> int -> float -> unit
(** [set_rhs t i rhs] replaces the right-hand side of the [i]-th
    constraint (insertion order).  Raises [Invalid_argument] on a bad
    index. *)

val replace_constraint : t -> int -> (float * var) list -> cmp -> float -> unit
(** Replace the [i]-th constraint (insertion order) wholesale; terms
    are normalised as in {!add_constraint}. *)

val set_objective : t -> (float * var) list -> unit
(** Minimised objective; variables not mentioned have cost 0. *)

val value : solution -> var -> float

val problem : t -> float array * Simplex.row array
(** The cost vector and rows (insertion order) the engine receives. *)

val solve : t -> outcome
(** Cold solve — identical to {!solve_ext} without a snapshot.
    Raises [Failure] naming the violated condition if an optimum fails
    its duality certificate. *)

val solve_ext : ?prev:snapshot -> t -> outcome * Simplex.stats * snapshot
(** Solve, reporting pivot/fallback counters and the snapshot for a
    later {!resolve}.  With [?prev], the simplex warm-starts from the
    previous basis when the row layout still matches
    ([Simplex.stats.warm_used]); otherwise the cold path runs and
    [fallback] is set.  Raises like {!solve}. *)

val resolve : t -> prev:snapshot -> outcome * Simplex.stats * snapshot
(** [resolve t ~prev] = [solve_ext ~prev t]: the re-solve after
    in-place edits. *)

val pp_outcome : Format.formatter -> outcome -> unit
