type finding = Pair_digest.finding = {
  core : int;
  position : int;
  instr : Sonar_isa.Instr.t;
  static_index : int;
  ccd0 : int;
  ccd1 : int;
  commit_delta : int;
}

type report = Pair_digest.report = {
  findings : finding list;
  raw_timing_diffs : int;
  state_diffs : (string * string) list;
  diverged : bool;
  total_delta : int;
}

let detect (pair : Executor.pair) = pair.digest.Pair_digest.report

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>CCD-affected instructions: %d (raw timing diffs %d, run-length delta %d%s)@,"
    (List.length r.findings) r.raw_timing_diffs r.total_delta
    (if r.diverged then ", traces diverged" else "");
  List.iter
    (fun f ->
      Format.fprintf fmt "  core%d @%d %a: CCD %d -> %d (commit %+d)@," f.core
        f.position Sonar_isa.Instr.pp f.instr f.ccd0 f.ccd1 f.commit_delta)
    r.findings;
  Format.fprintf fmt "contention-state discrepancies: %d@,"
    (List.length r.state_diffs);
  List.iter
    (fun (p, d) -> Format.fprintf fmt "  %s: %s@," p d)
    r.state_diffs;
  Format.fprintf fmt "@]"
