(** Two-phase sparse revised primal simplex.

    Solves  min cᵀx  s.t.  Ax {≤,=,≥} b,  x ≥ 0.

    The constraint matrix is held in compressed sparse columns built
    straight from the rows' term lists, with one slack/surplus column
    per inequality and one artificial column per ≥/= row (after rows
    with a negative RHS are negated).  The basis inverse is a product
    of eta columns, refactorised every 64 pivots: logical columns stay
    in their own rows and the other basic columns are pivoted in
    sparsest first, with partial pivoting.  An iteration is one BTRAN
    for full Dantzig pricing and one FTRAN of the entering column for
    the ratio test.

    Phase 1 minimises the sum of artificial variables to find a basic
    feasible solution; phase 2 optimises the real objective.  The pivot
    rules are deterministic under rounding noise:
    - pricing takes the minimum reduced cost, then the lowest column
      index within [1e-11·max(1, |min|)] of it;
    - the ratio test takes the minimum ratio over coefficients
      [> 1e-9], then the smallest basic column index within
      [1e-9·max(1, |min|)] of it;
    - after every pivot, basic values below [1e-13·max(1, maxᵢ bᵢ)] in
      magnitude are set to exactly 0;
    - basic artificials left after phase 1 are driven out in
      column-index order;
    - after 1,000 consecutive degenerate pivots pricing switches to
      Bland's rule for good, which guarantees termination.

    {b Warm starting.}  An [Optimal] {!solve_ext} exports its final
    {!basis}; feeding it back through [?warm_basis] on a perturbed
    problem with the same variable count and row layout factorises
    the imported columns, checks primal feasibility and runs phase 2
    only.  The warm path is conservative: any doubt — layout mismatch,
    singular or primal-infeasible imported basis, or unboundedness
    encountered from it — abandons the attempt and reruns the cold
    two-phase path ([fallback] set in {!stats}).  A warm answer is
    therefore always an optimum the cold path would also reach, and
    [Infeasible]/[Unbounded] verdicts only ever come from the cold
    path.

    This module is the raw engine; prefer the {!Model} builder. *)

type sense = Le | Ge | Eq

type row = {
  terms : (float * int) list;  (** (coefficient, variable index) *)
  sense : sense;
  rhs : float;
}

type result =
  | Optimal of { x : float array; y : float array }
      (** [x]: optimal values of the structural variables; [y]: the
          duals of the rows as given (one BTRAN of the final basis),
          for {!Certificate.check} *)
  | Infeasible
  | Unbounded

type basis
(** The optimal basis of a previous solve: the layout signature
    (variable count, normalised row senses) plus the set of basic
    columns.  Only meaningful for a problem with the same row-list
    shape; anything else is rejected at import and the solve falls
    back to the cold path. *)

type stats = {
  pivots : int;          (** phase-2 pivots performed by this call *)
  phase1_pivots : int;   (** phase-1 and drive-out pivots, counted apart
                             from [pivots]: the call's total is the sum *)
  warm_used : bool;      (** the warm basis carried the solve to optimality *)
  fallback : bool;       (** a warm basis was supplied but unusable: the
                             cold two-phase path ran instead *)
}

val solve : cost:float array -> rows:row array -> result
(** [solve ~cost ~rows]: [cost] has one entry per structural variable
    and every term's variable index lies in [[0, length cost)].
    Repeated variables in a row are summed.  Raises [Invalid_argument]
    on an out-of-range variable and [Failure] if the iteration cap (a
    defensive bound far above any realistic run) is hit.  Identical to
    {!solve_ext} without a warm basis. *)

val solve_ext :
  ?warm_basis:basis ->
  ?on_pivot:(enter:int -> leave:int -> unit) ->
  cost:float array ->
  rows:row array ->
  unit ->
  result * stats * basis option
(** Like {!solve}, additionally returning pivot counters and — when
    the outcome is [Optimal] — the final basis for reuse.  With
    [?warm_basis], the prior basis is re-installed and only phase 2
    runs when it is still primal feasible for the perturbed problem;
    an unchanged problem re-solves in exactly 0 pivots.  Degenerate
    imports (an empty problem, a basis from a different layout, a
    basis made infeasible or whose re-solve turns unbounded) run cold
    with [fallback = true].  [?on_pivot] observes every pivot, drive-out
    included, as the entering and leaving column indices (structural,
    then slack/surplus, then artificial). *)
