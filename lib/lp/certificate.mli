(** Duality certificate of an LP optimum.

    For  min cᵀx  s.t.  Ax {≤,=,≥} b,  x ≥ 0,  a primal point [x] and a
    dual vector [y] (one entry per row) prove [x] optimal when

    - [x] is primal feasible: [x ≥ 0] and every row holds;
    - [y] has the row-sense signs: [yᵢ ≤ 0] on ≤ rows, [yᵢ ≥ 0] on ≥
      rows, free on = rows;
    - every reduced cost [cⱼ − Σᵢ yᵢ aᵢⱼ] is non-negative;
    - the duality gap [|cᵀx − bᵀy|] is zero.

    The checker sees only the rows, the costs, [x] and [y] — nothing of
    the engine that produced them.  Each condition holds within
    [1e-6]: absolute on signs, and relative to [1 +] the sum of the
    magnitudes of the terms involved on sums. *)

val check :
  cost:float array ->
  rows:Simplex.row array ->
  x:float array ->
  y:float array ->
  (unit, string) result
(** [Error msg] names the first violated condition: dimension
    mismatch, primal feasibility, dual sign, dual feasibility or
    duality gap. *)
