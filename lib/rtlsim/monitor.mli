(** Runtime [reqsIntvl] collection over an instrumented module.

    Attach a monitor to a compiled {!Engine.t} and sample it once per cycle
    (after [Engine.step]). For every instrumented contention point it
    tracks, within an optional monitoring window:

    - the minimum interval between valid requests from distinct sources
      (pairwise [reqsIntvl]);
    - the minimum interval between consecutive valid requests from the same
      source;
    - whether a {e volatile contention} was triggered (two distinct sources
      valid in the same cycle, i.e. pairwise interval 0). *)

type point_state = {
  point_id : string;
  mutable min_pair_interval : int option;
  mutable min_self_interval : int option;
  mutable triggered : bool;
  mutable request_hits : int;  (** total valid-request observations *)
}

type t

val create : Engine.t -> Sonar_ir.Instrument.point_monitor list -> t

val set_window : t -> start:int -> stop:int -> unit
(** Restrict sampling to cycles in [start, stop] (inclusive). *)

val clear_window : t -> unit
val sample : t -> unit
(** Read the engine's monitor outputs for the current cycle. *)

val states : t -> point_state list
val find : t -> string -> point_state option
(** Look up a point's state by id. *)
