open Sonar_uarch

type aligned = {
  position : int;
  instr : Sonar_isa.Instr.t;
  static_index : int;
  cycle0 : int;
  cycle1 : int;
  ccd0 : int;
  ccd1 : int;
}

let key (c : Core_model.commit_record) = c.c_eff.Sonar_isa.Golden.index

let distance (commits : Core_model.commit_record array) i =
  commits.(i).c_cycle - if i = 0 then 0 else commits.(i - 1).c_cycle

let iter_aligned a b f =
  let na = Array.length a and nb = Array.length b in
  (* Common head. *)
  let head = ref 0 in
  while !head < na && !head < nb && key a.(!head) = key b.(!head) do
    incr head
  done;
  (* Common tail, not overlapping the head. *)
  let tail = ref 0 in
  while
    !tail < na - !head
    && !tail < nb - !head
    && key a.(na - 1 - !tail) = key b.(nb - 1 - !tail)
  do
    incr tail
  done;
  for i = 0 to !head - 1 do
    f i i
  done;
  for j = 0 to !tail - 1 do
    f (na - !tail + j) (nb - !tail + j)
  done;
  !head + !tail < max na nb

let align commits0 commits1 =
  let a = Array.of_list commits0 and b = Array.of_list commits1 in
  let rows = ref [] in
  let diverged =
    iter_aligned a b (fun i i' ->
        let x = a.(i) and y = b.(i') in
        rows :=
          {
            position = i;
            instr = x.c_eff.Sonar_isa.Golden.instr;
            static_index = key x;
            cycle0 = x.c_cycle;
            cycle1 = y.c_cycle;
            ccd0 = distance a i;
            ccd1 = distance b i';
          }
          :: !rows)
  in
  (List.rev !rows, diverged)

let ccd_affected rows = List.filter (fun r -> r.ccd0 <> r.ccd1) rows
let timing_diff_count rows =
  List.length (List.filter (fun r -> r.cycle0 <> r.cycle1) rows)
