(** Dual-differential side-channel detection (§7.1–7.2).

    Combines the CCD differential (which instructions are genuinely
    affected) with the contention-state differential (which contention
    points behaved differently under the two secrets). Together, a CCD
    finding plus the state discrepancies at the points it implicates
    identify and justify a contention side channel (Figure 5). *)

type finding = Pair_digest.finding = {
  core : int;
  position : int;  (** commit-order position *)
  instr : Sonar_isa.Instr.t;
  static_index : int;
  ccd0 : int;
  ccd1 : int;
  commit_delta : int;  (** cycle1 - cycle0 *)
}

type report = Pair_digest.report = {
  findings : finding list;  (** CCD-affected instructions, all cores *)
  raw_timing_diffs : int;
      (** instructions whose absolute commit time differs (includes in-order
          propagation the CCD filter removes) *)
  state_diffs : (string * string) list;
      (** per contention point, how its states differ across secrets *)
  diverged : bool;  (** commit traces diverged in the middle *)
  total_delta : int;  (** whole-run cycle-count difference *)
}

val detect : Executor.pair -> report
(** The pair's report, computed with the pair ([pair.digest.report]). The
    contention-state differential equals
    {!Sonar_uarch.Cpoint.diff_snapshots} over the two runs'
    {!Sonar_uarch.Machine.snapshots}. *)

val pp_report : Format.formatter -> report -> unit
