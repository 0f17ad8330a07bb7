type kind = Volatile | Persistent

type t = {
  name : string;
  component : Sonar_ir.Component.t;
  fanout : int;
  max_subs : int;
  single_valid : bool;
  sources : string array;
  last_valid : int array;
  hits : int array;
  mutable min_pair : int option;
  mutable min_self : int option;
  mutable active_sources : int;  (* sources with hits > 0, kept incrementally *)
  mutable single_valid_dominated : bool;
  volatile_slots : int;  (* sub-points below this index are volatile *)
  (* Triggered sub-points as dense indices: a membership flag per index,
     the set members in insertion order and their count. *)
  trig_mask : Bytes.t;
  mutable trig_list : int list;
  mutable trig_count : int;
  pair_min : int array;  (* per risky source pair: min interval, [max_int] = none *)
  last_tainted : bool array;  (* was each source's latest request tainted *)
  mutable digest : int;
  mutable event_count : int;
}

type registry = {
  config : Config.t;
  table : (string, t) Hashtbl.t;
  mutable order : t list;  (* reverse registration order *)
  mutable cycle : int;
  mutable open_ : bool;
  mutable first_open : int;  (* -1 until the window first opens *)
  mutable last_open : int;
}

let create config =
  {
    config;
    table = Hashtbl.create 64;
    order = [];
    cycle = 0;
    open_ = false;
    first_open = -1;
    last_open = -1;
  }

let clear_triggered p =
  List.iter (fun i -> Bytes.unsafe_set p.trig_mask i '\000') p.trig_list;
  p.trig_list <- [];
  p.trig_count <- 0

let trigger p i =
  if Bytes.get p.trig_mask i = '\000' then begin
    Bytes.unsafe_set p.trig_mask i '\001';
    p.trig_list <- i :: p.trig_list;
    p.trig_count <- p.trig_count + 1
  end

let reset_point p =
  Array.fill p.last_valid 0 (Array.length p.last_valid) (-1);
  Array.fill p.hits 0 (Array.length p.hits) 0;
  Array.fill p.last_tainted 0 (Array.length p.last_tainted) false;
  p.min_pair <- None;
  p.min_self <- None;
  p.active_sources <- 0;
  p.single_valid_dominated <- true;
  clear_triggered p;
  Array.fill p.pair_min 0 (Array.length p.pair_min) max_int;
  p.digest <- Hashtbl.hash p.name;
  p.event_count <- 0

let reset reg =
  (* Registered points survive a reset (registration is structural: it
     depends only on the config and core count, never on the program), but
     every per-run observation is rewound to the state [create] + fresh
     [point] calls would produce — reuse must be bit-identical to a fresh
     registry. *)
  List.iter reset_point reg.order;
  reg.cycle <- 0;
  reg.open_ <- false;
  reg.first_open <- -1;
  reg.last_open <- -1

(* Sub-point granularity: each (source pair, data bucket) combination is a
   distinct netlist sub-point. Wide arbiters route many data fields through
   many MUX bits, so distinct data classes exercise distinct netlist MUXes;
   this is what makes contention coverage keep growing with testcase
   diversity (Figure 8) instead of saturating after a handful of runs. *)
let data_buckets = 64

(* The low 6 bits of the product, which depend only on the low bits of
   [data]: the same bucket a 64-bit product would give. *)
let bucket_of data = (data * 0x9E3779B9) land (data_buckets - 1)

let point reg ~name ~component ~sources ?(persistent_subs = 0)
    ?(single_valid = false) () =
  match Hashtbl.find_opt reg.table name with
  | Some p -> p
  | None ->
      let n = List.length sources in
      let volatile_slots = max 1 (n * (n - 1) / 2) * data_buckets in
      let max_subs = volatile_slots + persistent_subs in
      let p =
        {
          name;
          component;
          fanout = Config.fanout_of reg.config name;
          max_subs;
          single_valid = single_valid || n = 1;
          sources = Array.of_list sources;
          last_valid = Array.make n (-1);
          hits = Array.make n 0;
          min_pair = None;
          min_self = None;
          active_sources = 0;
          single_valid_dominated = true;
          volatile_slots;
          trig_mask = Bytes.make max_subs '\000';
          trig_list = [];
          trig_count = 0;
          pair_min = Array.make (n * (n - 1) / 2) max_int;
          last_tainted = Array.make n false;
          digest = Hashtbl.hash name;
          event_count = 0;
        }
      in
      Hashtbl.replace reg.table name p;
      reg.order <- p :: reg.order;
      p

let update_min current candidate =
  match current with Some m when m <= candidate -> current | _ -> Some candidate

let mix digest v = (digest * 0x01000193) lxor (v land 0xFFFFFF)

let pair_sub n i j =
  let i, j = if i < j then (i, j) else (j, i) in
  (* Index of pair (i, j) with i < j in the triangular enumeration. *)
  (i * (2 * n - i - 1) / 2) + (j - i - 1)

let request reg p ~tainted ~source ~data =
  let n = Array.length p.sources in
  if source < 0 || source >= n then invalid_arg "Cpoint.request: bad source";
  let cycle = reg.cycle in
  if reg.open_ then begin
    if p.hits.(source) = 0 then p.active_sources <- p.active_sources + 1;
    p.hits.(source) <- p.hits.(source) + 1;
    p.event_count <- p.event_count + 1;
    p.digest <- mix (mix p.digest (source + (cycle land 0xFF))) (data land 0xFFFF);
    (* Single-valid dominance: demoted once a second source shows activity.
       [active_sources] is maintained incrementally above, so this is O(1)
       per request instead of an O(sources) rescan. *)
    if p.single_valid_dominated && p.active_sources > 1 then
      p.single_valid_dominated <- false;
    (* A lone-source point triggers on its first risky in-window request:
       its valid signal is the request itself and is trivially asserted. *)
    if n = 1 && tainted then trigger p (bucket_of data);
    (* Same-source consecutive interval. *)
    if p.last_valid.(source) >= 0 then
      p.min_self <- update_min p.min_self (cycle - p.last_valid.(source));
    (* Pairwise intervals against other sources' latest firing. Only risky
       pairs — those with a secret-dependent member — are recorded: they
       are the ones that can leak, and the only ones used for guidance
       (§6.1: secret-dependent contention). *)
    for other = 0 to n - 1 do
      if other <> source && p.last_valid.(other) >= 0 then begin
        let interval = cycle - p.last_valid.(other) in
        if tainted || p.last_tainted.(other) then begin
          p.min_pair <- update_min p.min_pair interval;
          let pair = pair_sub n source other in
          if interval < p.pair_min.(pair) then p.pair_min.(pair) <- interval;
          if interval = 0 then trigger p ((pair * data_buckets) + bucket_of data)
        end
      end
    done
  end;
  p.last_valid.(source) <- cycle;
  p.last_tainted.(source) <- tainted

let grant reg p ~source =
  if reg.open_ then p.digest <- mix p.digest (0x5A + source)

let persistent reg p ~tainted ~source ~sub ~data =
  let persistent_slots = p.max_subs - p.volatile_slots in
  if persistent_slots = 0 then
    invalid_arg "Cpoint.persistent: point has no persistent sub-points";
  if reg.open_ then begin
    p.event_count <- p.event_count + 1;
    p.digest <- mix (mix p.digest (0xBEEF + source)) (data land 0xFFFF);
    if tainted then trigger p (p.volatile_slots + (sub mod persistent_slots))
  end

let set_cycle reg c =
  reg.cycle <- c;
  if reg.open_ then reg.last_open <- c

let open_window reg =
  reg.open_ <- true;
  if reg.first_open < 0 then reg.first_open <- reg.cycle;
  reg.last_open <- reg.cycle

let close_window reg = reg.open_ <- false
let window_open reg = reg.open_

let window_bounds reg =
  if reg.first_open < 0 then None else Some (reg.first_open, reg.last_open)

let points reg = List.rev reg.order

(* Volatile indices lie below [volatile_slots] and persistent ones at or
   above it, so ascending index order is [compare] order on the pairs. *)
let sub_kind ~volatile_slots i = if i < volatile_slots then Volatile else Persistent

let triggered_indices p =
  if p.trig_count = 0 then [||]
  else begin
    let a = Array.of_list p.trig_list in
    Array.sort Int.compare a;
    a
  end

let triggered_subs p =
  Array.fold_right
    (fun i acc -> (sub_kind ~volatile_slots:p.volatile_slots i, i) :: acc)
    (triggered_indices p) []

let pair_intervals p =
  let acc = ref [] in
  for pair = Array.length p.pair_min - 1 downto 0 do
    let m = p.pair_min.(pair) in
    if m < max_int then acc := (pair, m) :: !acc
  done;
  !acc

(* Invert the triangular pair enumeration of [pair_sub]. *)
let pair_name p pair =
  let n = Array.length p.sources in
  let rec find i =
    if i >= n - 1 then (0, 1)
    else begin
      let row = (n - 1 - i) in
      let start = pair_sub n i (i + 1) in
      if pair < start + row then (i, i + 1 + (pair - start)) else find (i + 1)
    end
  in
  let i, j = find 0 in
  if i < n && j < n then Printf.sprintf "%s-%s" p.sources.(i) p.sources.(j)
  else string_of_int pair

let triggered_weight p =
  float_of_int p.fanout *. float_of_int p.trig_count
  /. float_of_int p.max_subs

(* Checkpoint support: a registry-level save holds one preallocated buffer
   per registered point (in [points] order — registration is structural,
   so the order is stable for a given config + core count) plus the
   window/cycle state.  Per-source and per-pair arrays are blitted; the
   triggered list is immutable, so the save shares it, and restore clears
   the live membership flags it set before raising the saved ones. *)

type point_save = {
  ps_last_valid : int array;
  ps_hits : int array;
  ps_last_tainted : bool array;
  mutable ps_min_pair : int option;
  mutable ps_min_self : int option;
  mutable ps_active_sources : int;
  mutable ps_single_valid_dominated : bool;
  mutable ps_trig_list : int list;
  ps_pair_min : int array;
  mutable ps_digest : int;
  mutable ps_event_count : int;
}

type save = {
  sv_points : (t * point_save) array;
  mutable sv_cycle : int;
  mutable sv_open : bool;
  mutable sv_first_open : int;
  mutable sv_last_open : int;
}

let make_save reg =
  {
    sv_points =
      Array.of_list
        (List.map
           (fun p ->
             let n = Array.length p.sources in
             ( p,
               {
                 ps_last_valid = Array.make n (-1);
                 ps_hits = Array.make n 0;
                 ps_last_tainted = Array.make n false;
                 ps_min_pair = None;
                 ps_min_self = None;
                 ps_active_sources = 0;
                 ps_single_valid_dominated = true;
                 ps_trig_list = [];
                 ps_pair_min = Array.make (Array.length p.pair_min) max_int;
                 ps_digest = 0;
                 ps_event_count = 0;
               } ))
           (points reg));
    sv_cycle = 0;
    sv_open = false;
    sv_first_open = -1;
    sv_last_open = -1;
  }

let capture reg sv =
  Array.iter
    (fun (p, ps) ->
      let n = Array.length p.sources in
      Array.blit p.last_valid 0 ps.ps_last_valid 0 n;
      Array.blit p.hits 0 ps.ps_hits 0 n;
      Array.blit p.last_tainted 0 ps.ps_last_tainted 0 n;
      ps.ps_min_pair <- p.min_pair;
      ps.ps_min_self <- p.min_self;
      ps.ps_active_sources <- p.active_sources;
      ps.ps_single_valid_dominated <- p.single_valid_dominated;
      ps.ps_trig_list <- p.trig_list;
      Array.blit p.pair_min 0 ps.ps_pair_min 0 (Array.length p.pair_min);
      ps.ps_digest <- p.digest;
      ps.ps_event_count <- p.event_count)
    sv.sv_points;
  sv.sv_cycle <- reg.cycle;
  sv.sv_open <- reg.open_;
  sv.sv_first_open <- reg.first_open;
  sv.sv_last_open <- reg.last_open

let restore reg sv =
  Array.iter
    (fun (p, ps) ->
      let n = Array.length p.sources in
      Array.blit ps.ps_last_valid 0 p.last_valid 0 n;
      Array.blit ps.ps_hits 0 p.hits 0 n;
      Array.blit ps.ps_last_tainted 0 p.last_tainted 0 n;
      p.min_pair <- ps.ps_min_pair;
      p.min_self <- ps.ps_min_self;
      p.active_sources <- ps.ps_active_sources;
      p.single_valid_dominated <- ps.ps_single_valid_dominated;
      clear_triggered p;
      List.iter (fun i -> Bytes.unsafe_set p.trig_mask i '\001') ps.ps_trig_list;
      p.trig_list <- ps.ps_trig_list;
      p.trig_count <- List.length ps.ps_trig_list;
      Array.blit ps.ps_pair_min 0 p.pair_min 0 (Array.length p.pair_min);
      p.digest <- ps.ps_digest;
      p.event_count <- ps.ps_event_count)
    sv.sv_points;
  reg.cycle <- sv.sv_cycle;
  reg.open_ <- sv.sv_open;
  reg.first_open <- sv.sv_first_open;
  reg.last_open <- sv.sv_last_open

type snapshot = {
  point_name : string;
  s_hits : int array;
  s_min_pair : int option;
  s_min_self : int option;
  s_triggered : (kind * int) list;
  s_digest : int;
}

let snapshot p =
  {
    point_name = p.name;
    s_hits = Array.copy p.hits;
    s_min_pair = p.min_pair;
    s_min_self = p.min_self;
    s_triggered = triggered_subs p;
    s_digest = p.digest;
  }

(* [Buffer.add_string b (string_of_int n)] without the format machinery
   or the intermediate string. *)
let rec add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

let add_opt b = function None -> Buffer.add_char b '-' | Some v -> add_int b v

let add_counts b hits =
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      add_int b v)
    hits

let describe_diff ~hits0 ~hits1 ~min_pair0 ~min_pair1 ~triggered0 ~triggered1
    ~same_triggered ~same_digest =
  let same_hits = hits0 = hits1 and same_min = min_pair0 = min_pair1 in
  if same_hits && same_min && same_triggered then
    if same_digest then None else Some "event stream differs"
  else begin
    let b = Buffer.create 64 in
    let sep () = if Buffer.length b > 0 then Buffer.add_string b "; " in
    if not same_hits then begin
      Buffer.add_string b "request counts ";
      add_counts b hits0;
      Buffer.add_string b " vs ";
      add_counts b hits1
    end;
    if not same_min then begin
      sep ();
      Buffer.add_string b "min reqsIntvl ";
      add_opt b min_pair0;
      Buffer.add_string b " vs ";
      add_opt b min_pair1
    end;
    if not same_triggered then begin
      sep ();
      Buffer.add_string b "triggered sub-points ";
      add_int b triggered0;
      Buffer.add_string b " vs ";
      add_int b triggered1
    end;
    Some (Buffer.contents b)
  end

let diff_snapshots a b =
  let tb = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace tb s.point_name s) b;
  List.filter_map
    (fun sa ->
      match Hashtbl.find_opt tb sa.point_name with
      | None -> Some (sa.point_name, "present only under secret=0")
      | Some sb ->
          Option.map
            (fun d -> (sa.point_name, d))
            (describe_diff ~hits0:sa.s_hits ~hits1:sb.s_hits
               ~min_pair0:sa.s_min_pair ~min_pair1:sb.s_min_pair
               ~triggered0:(List.length sa.s_triggered)
               ~triggered1:(List.length sb.s_triggered)
               ~same_triggered:(sa.s_triggered = sb.s_triggered)
               ~same_digest:(sa.s_digest = sb.s_digest)))
    a
