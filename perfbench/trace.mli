(** In-memory span recorder for the traced run.

    A span is one call into a layer, recorded by the benchmark around
    the call: name, start, end and the enclosing span.  Nothing is
    recorded unless {!enable} was called, so the untraced run pays one
    boolean test per call.  Spans stay in memory until {!write} dumps
    them at exit; {!layer} folds them into per-name self time. *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds. *)

val enable : unit -> unit

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a span when tracing is on.  The
    span's parent is the innermost span open when [f] started. *)

type layer = {
  calls : int;      (** spans recorded under the name *)
  self_ns : float;  (** summed duration minus time covered by child spans *)
}

val layer : string -> layer
(** Aggregate of every span named [name] so far; zero calls if none. *)

val seen : string -> bool
(** At least one span of that name was recorded. *)

val write : string -> unit
(** Write every span as a Chrome trace-event JSON file (viewable in
    Perfetto), with each span's id and parent id in its [args]. *)
