open Sonar_uarch

type finding = {
  core : int;
  position : int;
  instr : Sonar_isa.Instr.t;
  static_index : int;
  ccd0 : int;
  ccd1 : int;
  commit_delta : int;
}

type report = {
  findings : finding list;
  raw_timing_diffs : int;
  state_diffs : (string * string) list;
  diverged : bool;
  total_delta : int;
}

type credit = { point : Machine.point_info; subs : int array }

type t = {
  intervals : ((string * int) * int) list;
  triggered : ((string * Cpoint.kind * int) * float) list;
  credits0 : credit list;
  credits1 : credit list;
  report : report;
}

(* The lists are built back to front by consing, so every loop below runs
   in descending order. *)

let intervals (r0 : Machine.result) (r1 : Machine.result) =
  let points = r0.layout.points and order = r0.layout.by_name in
  let acc = ref [] in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    let a = r0.pair_min.(i) and b = r1.pair_min.(i) in
    let name = points.(i).pi_name in
    for j = Array.length a - 1 downto 0 do
      let v = Int.min a.(j) b.(j) in
      if v < max_int then acc := ((name, j), v) :: !acc
    done
  done;
  !acc

(* The union of two ascending index arrays, merged from the top. *)
let triggered (r0 : Machine.result) (r1 : Machine.result) =
  let points = r0.layout.points and order = r0.layout.by_name in
  let acc = ref [] in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    let a = r0.triggered.(i) and b = r1.triggered.(i) in
    if Array.length a > 0 || Array.length b > 0 then begin
      let pi = points.(i) in
      let add sub =
        let kind = Cpoint.sub_kind ~volatile_slots:pi.pi_volatile_slots sub in
        acc := ((pi.pi_name, kind, sub), pi.pi_sub_weight) :: !acc
      in
      let ia = ref (Array.length a - 1) and ib = ref (Array.length b - 1) in
      while !ia >= 0 || !ib >= 0 do
        let va = if !ia >= 0 then a.(!ia) else -1
        and vb = if !ib >= 0 then b.(!ib) else -1 in
        if va >= vb then decr ia;
        if vb >= va then decr ib;
        add (Int.max va vb)
      done
    end
  done;
  !acc

let credits (r : Machine.result) =
  let acc = ref [] in
  for i = Array.length r.triggered - 1 downto 0 do
    let subs = r.triggered.(i) in
    if Array.length subs > 0 then
      acc := { point = r.layout.points.(i); subs } :: !acc
  done;
  !acc

let ints_equal (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

(* Per point in registration order: the contention-state discrepancy, as
   [Cpoint.diff_snapshots] reports it for the two runs' snapshots. *)
let state_diffs (r0 : Machine.result) (r1 : Machine.result) =
  let acc = ref [] in
  for i = Array.length r0.layout.points - 1 downto 0 do
    let same_triggered = ints_equal r0.triggered.(i) r1.triggered.(i) in
    let same =
      ints_equal r0.hits.(i) r1.hits.(i)
      && r0.min_pair.(i) = r1.min_pair.(i)
      && same_triggered
      && r0.digest.(i) = r1.digest.(i)
    in
    if not same then
      match
        Cpoint.describe_diff ~hits0:r0.hits.(i) ~hits1:r1.hits.(i)
          ~min_pair0:r0.min_pair.(i) ~min_pair1:r1.min_pair.(i)
          ~triggered0:(Array.length r0.triggered.(i))
          ~triggered1:(Array.length r1.triggered.(i))
          ~same_triggered
          ~same_digest:(r0.digest.(i) = r1.digest.(i))
      with
      | Some d -> acc := (r0.layout.points.(i).pi_name, d) :: !acc
      | None -> ()
  done;
  !acc

(* The CCD differential over every core's aligned commit traces. *)
let detect (r0 : Machine.result) (r1 : Machine.result) =
  let findings = ref [] and raw = ref 0 and diverged = ref false in
  Array.iteri
    (fun core (c0 : Machine.core_result) ->
      let a = Array.of_list c0.commits
      and b = Array.of_list r1.cores.(core).commits in
      let d =
        Ccd.iter_aligned a b (fun i i' ->
            let x = a.(i) and y = b.(i') in
            if x.c_cycle <> y.c_cycle then incr raw;
            let ccd0 = Ccd.distance a i and ccd1 = Ccd.distance b i' in
            if ccd0 <> ccd1 then
              findings :=
                {
                  core;
                  position = i;
                  instr = x.c_eff.Sonar_isa.Golden.instr;
                  static_index = x.c_eff.Sonar_isa.Golden.index;
                  ccd0;
                  ccd1;
                  commit_delta = y.c_cycle - x.c_cycle;
                }
                :: !findings)
      in
      diverged := !diverged || d)
    r0.cores;
  {
    findings = List.rev !findings;
    raw_timing_diffs = !raw;
    state_diffs = state_diffs r0 r1;
    diverged = !diverged;
    total_delta = r1.cycles - r0.cycles;
  }

let make (r0 : Machine.result) (r1 : Machine.result) =
  if not (r0.layout == r1.layout || r0.layout = r1.layout) then
    invalid_arg "Pair_digest.make: runs with different point layouts";
  {
    intervals = intervals r0 r1;
    triggered = triggered r0 r1;
    credits0 = credits r0;
    credits1 = credits r1;
    report = detect r0 r1;
  }
