(** Plain-text rendering of experiment outputs in the shape the paper
    reports them: one series block per middlebox type for the figures
    (x = total traffic, y = max load, three strategy columns), and the
    max/min table for Table III. *)

val pp_figure : Format.formatter -> Experiment.figure -> unit

val pp_table3 : Format.formatter -> Experiment.table3_row list -> unit

val pp_k_ablation : Format.formatter -> Experiment.k_point list -> unit

val pp_cache_ablation : Format.formatter -> Pktsim.stats -> unit

val pp_cache_size_ablation :
  Format.formatter -> Experiment.cache_size_point list -> unit

val pp_frag_ablation : Format.formatter -> Experiment.frag_stats -> unit

val pp_lp_ablation : Format.formatter -> Experiment.lp_compare -> unit

val pp_failure_ablation : Format.formatter -> Experiment.failure_report -> unit

val pp_chaos_ablation : Format.formatter -> Experiment.chaos_report -> unit

val pp_live_ablation : Format.formatter -> Experiment.live_report -> unit

val pp_quorum_ablation : Format.formatter -> Experiment.quorum_report -> unit

val pp_corrupt_ablation : Format.formatter -> Experiment.corrupt_report -> unit

val pp_reopt_ablation : Format.formatter -> Experiment.reopt_report -> unit
(** ABL-REOPT: one row per (scenario, cold/warm) packet-level run, the
    per-step controller-level churn replay, and a final deterministic
    ["warm/cold objective agreement: A/T replay steps"] line CI greps. *)

val pp_sketch_ablation : Format.formatter -> Experiment.sketch_point list -> unit

val pp_epochs : Format.formatter -> Epochsim.epoch_metrics list -> unit

val pp_latency_ablation : Format.formatter -> Experiment.latency_report -> unit

val pp_queue_ablation : Format.formatter -> Experiment.queue_report -> unit

val millions : float -> string
(** "1.66M"-style rendering used across reports. *)

val figure_csv : Experiment.figure -> string
(** Machine-readable form for plotting: header
    [nf,flows,packets,hp,rand,lb], one row per (type, volume point). *)

val table3_csv : Experiment.table3_row list -> string
(** Header [nf,hp_max,hp_min,rand_max,rand_min,lb_max,lb_min]. *)

val live_csv : Experiment.live_report -> string
(** One row per control-loss point of ABL-LIVE; header
    [loss,injected,delivered,violating,versions,pushes,acks,lost,degraded,stale,bytes,max_load,audit].
    The [audit] column is the online audit's violation count, empty
    when auditing was off. *)

val live_devices_csv : Experiment.live_report -> string
(** Per-device view of ABL-LIVE's lossiest row; header
    [device,version,lag,retries,lost]. *)

val quorum_csv : Experiment.quorum_report -> string
(** One row per ABL-QUORUM chaos scenario; header
    [scenario,loss,injected,delivered,violating,versions,rounds,commits,aborts,msgs,lost,elections,degraded,stale,uncommitted,replica_versions,audit].
    [replica_versions] is "/"-separated per-replica committed
    versions; the [audit] column is empty when auditing was off. *)

val corrupt_csv : Experiment.corrupt_report -> string
(** One row per ABL-CORRUPT cell (plan × rate × sweep period); header
    [plan,rate,sweep_period,injected,delivered,corruptions,manifested,detected,repaired,violating,window_mean,window_max,sweep_rounds,sweep_msgs,sweep_bytes,audit].
    [sweep_period] is empty on sweep-disabled rows; the [audit] column
    is empty when auditing was off. *)

val reopt_csv : Experiment.reopt_report -> string
(** One row per ABL-REOPT packet-level run (scenario × cold/warm);
    header
    [scenario,routers,mode,reopts,pivots,phase1,warm_used,fallback,injected,delivered,violating,versions,degraded,max_load,audit].
    The [audit] column is empty when auditing was off. *)

val reopt_steps_csv : Experiment.reopt_report -> string
(** Per-step view of ABL-REOPT's controller-level differential replay;
    header
    [scenario,step,failed,cold_pivots,warm_pivots,cold_lambda,warm_lambda,warm_used,fallback,agree].
    [failed] is "+"-separated middlebox ids, empty on no-change steps. *)
