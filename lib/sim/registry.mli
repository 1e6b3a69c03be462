(** One entry per experiment.  [sdmctl exp] and the bench's experiment
    block are both loops over {!all}: adding an experiment means its
    {!Experiment} function, its {!Report} printer and one entry here,
    with no edit to either front end. *)

type params = {
  seed : int;
  flows : int option;  (** [None]: the entry's default for [fast] *)
  fast : bool;         (** reduced scale (the bench's [--fast]) *)
  audit : bool;        (** run auditable entries under the online audit *)
  jobs : int;
  shards : int;
}

type outcome = {
  print : Format.formatter -> unit;  (** the report, newline-terminated *)
  events : int;                      (** simulator events processed *)
  hops : int;                        (** router hops fast-forwarded *)
  csvs : (string * string) list;     (** (file name, contents) *)
  audits : int list;
      (** per-run audit violation counts; empty when auditing was off *)
  failure : string option;  (** a failed self-check, independent of audit *)
}

type entry = {
  name : string;     (** [sdmctl exp] name, e.g. ["fig4"], ["table3-waxman"] *)
  section : string;  (** bench section id, e.g. ["FIG4"], ["ABL-CACHE"] *)
  title : string;    (** bench header text after the section id *)
  default_flows : (int * int) option;
      (** (full-scale, [--fast]) flow defaults; [None] when the entry
          sweeps a fixed volume list and takes no flow count *)
  auditable : bool;
  run : params -> outcome;
}

val all : entry list
(** Every experiment, in bench order. *)

val find : string -> entry option
(** Look an entry up by [name]. *)

val failures : audit:bool -> outcome -> string list
(** The verdict both front ends exit 1 on: the self-check failure, and
    under [audit] any invariant violation. *)

val config : Experiment.scenario -> seed:int -> flows:int -> outcome
(** Configure load-balanced enforcement on a generated workload, price
    its dissemination and statically verify it; fails on a
    configuration error or any verification violation.  The [config]
    entry runs it on campus; [sdmctl verify] on either topology. *)

val chaos_outcome : Experiment.chaos_report -> outcome
(** The [chaos] entry's view of a report: events and router hops
    summed over the probe and every row, per-row audit counts. *)

val reopt_outcome : Experiment.reopt_report -> outcome
(** The [reopt] entry's view of a report; fails when a warm optimum
    disagrees with the cold one on some replay step. *)
