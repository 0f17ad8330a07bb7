open Sonar_uarch

(* One contention point's campaign state. The weight terms are fixed by
   the first credit seen under the point's name; [subs] and [pairs] flag
   the sub-points and source pairs credited so far. *)
type point = {
  single_valid : bool;
  comp : int;  (* index into [Sonar_ir.Component.all] *)
  bucket_w : float;
  pair_w : float;
  persist_w : float;
  subs : Bytes.t;
  pairs : Bytes.t;
}

type t = {
  points : (string, point) Hashtbl.t;
  mutable total : float;
  mutable sv_weight : float;
  comp_weight : float array;  (* [Sonar_ir.Component.all] order *)
  mutable distinct : int;
}

let components = Array.of_list Sonar_ir.Component.all

let create () =
  {
    points = Hashtbl.create 64;
    total = 0.;
    sv_weight = 0.;
    comp_weight = Array.make (Array.length components) 0.;
    distinct = 0;
  }

let comp_index c =
  let rec find i =
    if Sonar_ir.Component.equal components.(i) c then i else find (i + 1)
  in
  find 0

(* Fanout shares (see interface): pairs, buckets, persistent sub-points. *)
let make_point (pi : Machine.point_info) =
  let pairs = max 1 (pi.pi_n_sources * (pi.pi_n_sources - 1) / 2) in
  let persistent_slots = max 0 (pi.pi_max_subs - (pairs * Cpoint.data_buckets)) in
  let pair_share, bucket_share, persist_share =
    if persistent_slots > 0 then (0.4, 0.3, 0.3) else (0.55, 0.45, 0.)
  in
  let fanout = float_of_int pi.pi_fanout in
  {
    single_valid = pi.pi_single_valid;
    comp = comp_index pi.pi_component;
    bucket_w =
      bucket_share *. fanout /. float_of_int (pairs * Cpoint.data_buckets);
    pair_w = pair_share *. fanout /. float_of_int pairs;
    persist_w = persist_share *. fanout /. float_of_int (max 1 persistent_slots);
    subs = Bytes.make pi.pi_max_subs '\000';
    pairs = Bytes.make pairs '\000';
  }

let point t (pi : Machine.point_info) =
  match Hashtbl.find_opt t.points pi.pi_name with
  | Some p -> p
  | None ->
      let p = make_point pi in
      Hashtbl.replace t.points pi.pi_name p;
      p

let credit t p w =
  t.total <- t.total +. w;
  if p.single_valid then t.sv_weight <- t.sv_weight +. w;
  t.comp_weight.(p.comp) <- t.comp_weight.(p.comp) +. w

(* One run's credits, in the digest's order: registration order, then
   ascending sub-point. Floats are summed in exactly that order. *)
let absorb_run t (credits : Pair_digest.credit list) =
  let added = ref 0. in
  List.iter
    (fun { Pair_digest.point = pi; subs } ->
      let p = point t pi in
      Array.iter
        (fun sub ->
          if Bytes.get p.subs sub = '\000' then begin
            Bytes.set p.subs sub '\001';
            t.distinct <- t.distinct + 1;
            let w =
              if sub < pi.pi_volatile_slots then begin
                let pair = sub / Cpoint.data_buckets in
                if Bytes.get p.pairs pair = '\001' then p.bucket_w
                else begin
                  Bytes.set p.pairs pair '\001';
                  p.bucket_w +. p.pair_w
                end
              end
              else p.persist_w
            in
            credit t p w;
            added := !added +. w
          end)
        subs)
    credits;
  !added

let add_pair t (pair : Executor.pair) =
  let d = pair.digest in
  absorb_run t d.credits0 +. absorb_run t d.credits1

let total t = t.total
let distinct_subs t = t.distinct
let single_valid_weight t = if t.total = 0. then 0. else t.sv_weight /. t.total

let per_component t =
  List.mapi (fun i c -> (c, t.comp_weight.(i))) Sonar_ir.Component.all

let add_pair_delta t (pair : Executor.pair) =
  let before = Array.copy t.comp_weight in
  let added = add_pair t pair in
  let delta = ref [] in
  for i = Array.length components - 1 downto 0 do
    let d = t.comp_weight.(i) -. before.(i) in
    if d > 0. then
      delta := (Sonar_ir.Component.to_string components.(i), d) :: !delta
  done;
  (added, !delta)

let heatmap t =
  List.mapi
    (fun i c -> (Sonar_ir.Component.to_string c, t.comp_weight.(i)))
    Sonar_ir.Component.all
