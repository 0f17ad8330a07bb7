(** Everything the campaign's feedback fold reads from one executed pair,
    computed in one pass over the two runs' dense contention-point arrays
    ({!Sonar_uarch.Machine.result}), where the pair is run.

    The digest is plain data (no closures, no lazy values). Its lists are
    exactly what the per-pair folds produce: {!Executor.min_intervals},
    {!Executor.triggered}, the coverage credit stream {!Coverage} absorbs
    and the {!Detector} report. *)

type finding = {
  core : int;
  position : int;  (** commit-order position *)
  instr : Sonar_isa.Instr.t;
  static_index : int;
  ccd0 : int;
  ccd1 : int;
  commit_delta : int;  (** cycle1 - cycle0 *)
}

type report = {
  findings : finding list;  (** CCD-affected instructions, all cores *)
  raw_timing_diffs : int;
      (** instructions whose absolute commit time differs (includes in-order
          propagation the CCD filter removes) *)
  state_diffs : (string * string) list;
      (** per contention point, how its states differ across secrets *)
  diverged : bool;  (** commit traces diverged in the middle *)
  total_delta : int;  (** whole-run cycle-count difference *)
}
(** The dual-differential detector report; see {!Detector}. *)

type credit = {
  point : Sonar_uarch.Machine.point_info;
  subs : int array;  (** the run's triggered sub-points there, ascending *)
}
(** One point's triggered sub-points in one run: a coverage credit. *)

type t = {
  intervals : ((string * int) * int) list;
      (** per (point, source pair), the smaller of the two runs' minimum
          interval, ascending by (name, pair) *)
  triggered : ((string * Sonar_uarch.Cpoint.kind * int) * float) list;
      (** the union of both runs' triggered sub-points with their netlist
          weight, ascending by (name, kind, sub) *)
  credits0 : credit list;
      (** run 0's points with triggered sub-points, registration order *)
  credits1 : credit list;  (** the same for run 1 *)
  report : report;
}

val make : Sonar_uarch.Machine.result -> Sonar_uarch.Machine.result -> t
(** [make run0 run1].
    @raise Invalid_argument when the runs' point layouts differ (they come
    from different configurations or core counts). *)
