(** Hash-based probabilistic next-hop selection (Sec. III.C).

    "x hashes the flow identifier of the packet … Let r be the hash
    output in the range [0, N).  Middlebox y_i will be selected if
    Σ_{j<i} t/Σ t ≤ r/N < Σ_{j≤i} t/Σ t."  Hashing rather than random
    drawing keeps every packet of a flow on the same middlebox.

    The hash is salted with the deciding entity and the function being
    sought so the per-hop selections of one flow are independent. *)

val flow_point :
  Netpkt.Flow.t -> entity:Mbox.Entity.t -> nf:Policy.Action.nf -> float
(** Deterministic value in [0,1) — the paper's r/N. *)

val pick : (int * float) array -> u:float -> int option
(** Cumulative-bucket selection: [pick row ~u] returns the id whose
    bucket contains [u], or [None] when all weights are zero (caller
    falls back to hot-potato).  Raises [Invalid_argument] if [u] is
    outside [0,1) or a weight is negative. *)

val pick_uniform : 'a list -> u:float -> 'a
(** Uniform selection among candidates (the Rand baseline).
    Raises [Invalid_argument] on an empty list. *)
