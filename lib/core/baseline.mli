(** Comparison fuzzer.

    The Figure 8 random-testing baseline is not here: it is {!Fuzzer.run}
    with the {!Feedback.random} strategy preset.

    {b SpecDoctor-style} — a transient-execution-focused fuzzer: testcases
    always carry a faulting (Meltdown-style) secret region, and feedback is
    coverage of triggered contention points rather than request intervals
    (SpecDoctor retains testcases reaching new RTL states; it has no notion
    of inter-request timing). The Figure 11 comparison measures how many
    {e new} contention points each approach keeps finding. *)

val specdoctor :
  ?seed:int64 ->
  ?max_cycles:int ->
  Sonar_uarch.Config.t ->
  iterations:int ->
  Fuzzer.series_point list
(** Cumulative triggered-contention series for the SpecDoctor-style fuzzer
    ([timing_diffs] is left 0 — it does not run the CCD detector). *)
