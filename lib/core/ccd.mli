(** Commit-cycle-difference (CCD) metric and trace alignment (§7.1).

    An instruction's commit time can shift either because a side channel
    affected it or because an earlier instruction's delay propagated through
    in-order commit. The CCD — the distance between an instruction's commit
    cycle and its predecessor's — filters the propagation: if only in-order
    commit is at work, CCDs are identical across secret values; a CCD that
    changes with the secret marks an instruction {e genuinely} affected.

    Secret-dependent control flow can make the two commit traces diverge in
    the middle; alignment matches the common head forward and the common
    tail backward (suffix-region instructions, where contention effects
    surface, stay comparable). *)

type aligned = {
  position : int;  (** commit-order position in run 0 *)
  instr : Sonar_isa.Instr.t;
  static_index : int;
  cycle0 : int;
  cycle1 : int;
  ccd0 : int;  (** commit distance to the preceding commit, secret = 0 *)
  ccd1 : int;
}

val align :
  Sonar_uarch.Core_model.commit_record list ->
  Sonar_uarch.Core_model.commit_record list ->
  aligned list * bool
(** [(rows, diverged)]: [diverged] is true when the traces differ in the
    middle (head + tail alignment dropped some instructions). *)

val iter_aligned :
  Sonar_uarch.Core_model.commit_record array ->
  Sonar_uarch.Core_model.commit_record array ->
  (int -> int -> unit) ->
  bool
(** [iter_aligned a b f] calls [f i i'] for every aligned row — run 0's
    commit [a.(i)] against run 1's [b.(i')] — head rows first, then tail
    rows, each ascending: the rows {!align} returns, in its order. The
    result is [diverged]. *)

val distance : Sonar_uarch.Core_model.commit_record array -> int -> int
(** [distance commits i]: commit [i]'s CCD, the cycles since the previous
    commit (since cycle 0 for the first). *)

val ccd_affected : aligned list -> aligned list
(** Rows whose CCD changes with the secret — the instructions genuinely
    affected by a side channel. *)

val timing_diff_count : aligned list -> int
(** Rows with any commit-time difference (including in-order propagation). *)
