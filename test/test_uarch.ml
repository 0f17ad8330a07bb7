(* Tests for the micro-architectural timing models: configurations, the
   contention-point registry, caches, execution units, and the machine. *)

open Sonar_isa
open Sonar_uarch

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let r = Reg.of_int

(* --- Config --- *)

let test_config_lookup () =
  checkb "boom" true (Config.by_name "boom" = Some Config.boom);
  checkb "nutshell" true (Config.by_name "nutshell" = Some Config.nutshell);
  checkb "unknown" true (Config.by_name "zen5" = None)

let test_config_table1 () =
  checki "boom rob" 96 Config.boom.rob_entries;
  checki "boom fetch width" 8 Config.boom.fetch_width;
  checki "boom mshrs" 2 Config.boom.mshrs;
  checki "nutshell rob" 32 Config.nutshell.rob_entries;
  checkb "nutshell mdu" true Config.nutshell.unified_mdu;
  checkb "exception policies differ" true
    (Config.boom.exception_policy = Config.Lazy_at_commit
    && Config.nutshell.exception_policy = Config.Early_at_execute)

let test_config_fanout_prefix () =
  checki "bare name" 420 (Config.fanout_of Config.boom "tilelink.d_channel");
  checki "core prefix stripped" 540 (Config.fanout_of Config.boom "c0.lsu.ldq_stq_idx");
  checki "unknown defaults to 1" 1 (Config.fanout_of Config.boom "made.up")

(* --- Cpoint --- *)

let registry () = Cpoint.create Config.boom

let test_cpoint_intervals_and_triggers () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.arb" ~component:Sonar_ir.Component.Exec
      ~sources:[ "a"; "b" ] () in
  Cpoint.open_window reg;
  Cpoint.set_cycle reg 10;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:1;
  Cpoint.set_cycle reg 13;
  Cpoint.request reg p ~tainted:true ~source:1 ~data:2;
  Alcotest.(check (option int)) "pair interval 3" (Some 3) p.Cpoint.min_pair;
  checkb "not yet triggered" true (Cpoint.triggered_subs p = []);
  Cpoint.request reg p ~tainted:true ~source:0 ~data:3;
  checkb "same-cycle pair triggers" true (Cpoint.triggered_subs p <> [])

let test_cpoint_taint_gating () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.arb2" ~component:Sonar_ir.Component.Exec
      ~sources:[ "a"; "b" ] () in
  Cpoint.open_window reg;
  Cpoint.set_cycle reg 5;
  Cpoint.request reg p ~tainted:false ~source:0 ~data:1;
  Cpoint.request reg p ~tainted:false ~source:1 ~data:2;
  checkb "untainted pair does not trigger" true (Cpoint.triggered_subs p = []);
  Alcotest.(check (option int)) "untainted pair not recorded" None p.Cpoint.min_pair;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:3;
  checkb "tainted member triggers" true (Cpoint.triggered_subs p <> [])

(* Regression for the incremental active-source counter: dominance must
   survive repeated one-source activity (in and out of the window) and be
   demoted exactly when a second source first requests in-window. *)
let test_cpoint_dominance_counter () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.dom" ~component:Sonar_ir.Component.Exec
      ~sources:[ "a"; "b"; "c" ] () in
  Cpoint.set_cycle reg 1;
  (* Out-of-window requests do not count as activity. *)
  Cpoint.request reg p ~tainted:true ~source:1 ~data:1;
  Cpoint.open_window reg;
  Cpoint.set_cycle reg 2;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:1;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:2;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:3;
  checkb "one active source: still dominated" true p.Cpoint.single_valid_dominated;
  checki "active sources" 1 p.Cpoint.active_sources;
  Cpoint.set_cycle reg 3;
  Cpoint.request reg p ~tainted:true ~source:2 ~data:4;
  checkb "second source demotes" false p.Cpoint.single_valid_dominated;
  checki "two active sources" 2 p.Cpoint.active_sources

let test_cpoint_window_gating () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.arb3" ~component:Sonar_ir.Component.Exec
      ~sources:[ "a"; "b" ] () in
  Cpoint.set_cycle reg 5;
  (* window closed *)
  Cpoint.request reg p ~tainted:true ~source:0 ~data:1;
  Cpoint.request reg p ~tainted:true ~source:1 ~data:2;
  checkb "closed window: no triggers" true (Cpoint.triggered_subs p = []);
  checki "closed window: no hits" 0 (p.Cpoint.hits.(0) + p.Cpoint.hits.(1))

let test_cpoint_single_source () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.lone" ~component:Sonar_ir.Component.Rob
      ~sources:[ "only" ] () in
  Cpoint.open_window reg;
  Cpoint.set_cycle reg 2;
  checkb "single-valid flagged" true p.Cpoint.single_valid;
  Cpoint.request reg p ~tainted:true ~source:0 ~data:7;
  checkb "triggers on first risky request" true (Cpoint.triggered_subs p <> [])

let test_cpoint_pair_name () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.n" ~component:Sonar_ir.Component.Bus
      ~sources:[ "x"; "y"; "z" ] () in
  Alcotest.(check string) "pair 0" "x-y" (Cpoint.pair_name p 0);
  Alcotest.(check string) "pair 1" "x-z" (Cpoint.pair_name p 1);
  Alcotest.(check string) "pair 2" "y-z" (Cpoint.pair_name p 2)

let test_cpoint_persistent () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.pers" ~component:Sonar_ir.Component.Lsu
      ~sources:[ "ld"; "st" ] ~persistent_subs:64 () in
  Cpoint.open_window reg;
  Cpoint.set_cycle reg 1;
  Cpoint.persistent reg p ~tainted:false ~source:0 ~sub:5 ~data:1;
  checkb "untainted persistent ignored" true (Cpoint.triggered_subs p = []);
  Cpoint.persistent reg p ~tainted:true ~source:0 ~sub:5 ~data:1;
  checkb "tainted persistent triggers" true
    (List.exists (fun (k, _) -> k = Cpoint.Persistent) (Cpoint.triggered_subs p))

(* A point registered without [persistent_subs] has no persistent
   sub-point range: reporting into it used to write one index past
   [max_subs], letting [triggered_weight] exceed the fanout. *)
let test_cpoint_persistent_undeclared () =
  let reg = registry () in
  let p = Cpoint.point reg ~name:"t.nopers" ~component:Sonar_ir.Component.Lsu
      ~sources:[ "ld"; "st" ] () in
  Cpoint.open_window reg;
  Cpoint.set_cycle reg 1;
  checkb "persistent on undeclared point rejected" true
    (match Cpoint.persistent reg p ~tainted:true ~source:0 ~sub:0 ~data:1 with
    | exception Invalid_argument _ -> true
    | () -> false);
  checkb "nothing triggered" true (Cpoint.triggered_subs p = []);
  checkb "weight within fanout" true
    (Cpoint.triggered_weight p <= float_of_int p.Cpoint.fanout)

(* Representation oracle: the registry's dense per-point state against a
   naive reference built on association lists, over random points and
   random sequences of every registry operation.  The reference follows
   the documented semantics directly: source pairs are found by searching
   the pair list, data buckets use 64-bit arithmetic, triggered
   sub-points and pair minima are unsorted association lists. *)
type cp_op =
  | Cp_advance of int
  | Cp_open
  | Cp_close
  | Cp_request of bool * int * int
  | Cp_grant of int
  | Cp_persistent of bool * int * int * int
  | Cp_capture
  | Cp_restore
  | Cp_reset

type cp_ref = {
  mutable r_cycle : int;
  mutable r_open : bool;
  mutable r_first : int option;
  mutable r_last : int option;
  r_last_valid : int array;
  r_hits : int array;
  r_last_tainted : bool array;
  mutable r_min_pair : int option;
  mutable r_min_self : int option;
  mutable r_trig : (Cpoint.kind * int) list;
  mutable r_pair_min : (int * int) list;
  mutable r_digest : int;
}

let cp_name = "t.oracle"

let cp_fresh n =
  {
    r_cycle = 0;
    r_open = false;
    r_first = None;
    r_last = None;
    r_last_valid = Array.make n (-1);
    r_hits = Array.make n 0;
    r_last_tainted = Array.make n false;
    r_min_pair = None;
    r_min_self = None;
    r_trig = [];
    r_pair_min = [];
    r_digest = Hashtbl.hash cp_name;
  }

let cp_copy r =
  {
    r with
    r_last_valid = Array.copy r.r_last_valid;
    r_hits = Array.copy r.r_hits;
    r_last_tainted = Array.copy r.r_last_tainted;
  }

let cp_assign dst src =
  dst.r_cycle <- src.r_cycle;
  dst.r_open <- src.r_open;
  dst.r_first <- src.r_first;
  dst.r_last <- src.r_last;
  Array.blit src.r_last_valid 0 dst.r_last_valid 0 (Array.length src.r_last_valid);
  Array.blit src.r_hits 0 dst.r_hits 0 (Array.length src.r_hits);
  Array.blit src.r_last_tainted 0 dst.r_last_tainted 0
    (Array.length src.r_last_tainted);
  dst.r_min_pair <- src.r_min_pair;
  dst.r_min_self <- src.r_min_self;
  dst.r_trig <- src.r_trig;
  dst.r_pair_min <- src.r_pair_min;
  dst.r_digest <- src.r_digest

let cp_mix d v = (d * 0x01000193) lxor (v land 0xFFFFFF)
let cp_min cur v = match cur with Some m when m <= v -> cur | _ -> Some v

let cp_bucket data =
  Int64.to_int
    (Int64.unsigned_rem (Int64.mul (Int64.of_int data) 0x9E3779B9L) 64L)

let cp_pairs n =
  List.concat_map
    (fun i -> List.init (n - i - 1) (fun k -> (i, i + 1 + k)))
    (List.init n Fun.id)

let cp_trigger r k = if not (List.mem k r.r_trig) then r.r_trig <- k :: r.r_trig

let cp_step ~n ~persistent_subs r = function
  | Cp_advance d ->
      r.r_cycle <- r.r_cycle + d;
      if r.r_open then r.r_last <- Some r.r_cycle
  | Cp_open ->
      r.r_open <- true;
      if r.r_first = None then r.r_first <- Some r.r_cycle;
      r.r_last <- Some r.r_cycle
  | Cp_close -> r.r_open <- false
  | Cp_request (tainted, src, data) ->
      let cycle = r.r_cycle in
      if r.r_open then begin
        r.r_hits.(src) <- r.r_hits.(src) + 1;
        r.r_digest <- cp_mix (cp_mix r.r_digest (src + (cycle land 0xFF))) (data land 0xFFFF);
        if n = 1 && tainted then cp_trigger r (Cpoint.Volatile, cp_bucket data);
        if r.r_last_valid.(src) >= 0 then
          r.r_min_self <- cp_min r.r_min_self (cycle - r.r_last_valid.(src));
        for other = 0 to n - 1 do
          if other <> src && r.r_last_valid.(other) >= 0
             && (tainted || r.r_last_tainted.(other))
          then begin
            let interval = cycle - r.r_last_valid.(other) in
            let key = (min src other, max src other) in
            let pair =
              fst (List.find (fun (_, k) -> k = key) (List.mapi (fun i k -> (i, k)) (cp_pairs n)))
            in
            r.r_min_pair <- cp_min r.r_min_pair interval;
            r.r_pair_min <-
              (pair, Option.get (cp_min (List.assoc_opt pair r.r_pair_min) interval))
              :: List.remove_assoc pair r.r_pair_min;
            if interval = 0 then
              cp_trigger r (Cpoint.Volatile, (pair * Cpoint.data_buckets) + cp_bucket data)
          end
        done
      end;
      r.r_last_valid.(src) <- cycle;
      r.r_last_tainted.(src) <- tainted
  | Cp_grant src -> if r.r_open then r.r_digest <- cp_mix r.r_digest (0x5A + src)
  | Cp_persistent (tainted, src, sub, data) ->
      if r.r_open then begin
        r.r_digest <- cp_mix (cp_mix r.r_digest (0xBEEF + src)) (data land 0xFFFF);
        if tainted then
          let volatile_slots = max 1 (List.length (cp_pairs n)) * Cpoint.data_buckets in
          cp_trigger r (Cpoint.Persistent, volatile_slots + (sub mod persistent_subs))
      end
  | Cp_capture | Cp_restore | Cp_reset -> assert false

let cp_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 6 and* persistent_subs = oneofl [ 0; 0; 1; 5; 64 ] in
  let data = oneof [ int; int_range 0 1000 ] in
  let op =
    frequency
      ([
         (4, map (fun d -> Cp_advance d) (int_range 0 3));
         (1, return Cp_open);
         (1, return Cp_close);
         (8, map3 (fun t s d -> Cp_request (t, s, d)) bool (int_range 0 (n - 1)) data);
         (1, map (fun s -> Cp_grant s) (int_range 0 (n - 1)));
         (1, return Cp_capture);
         (1, return Cp_restore);
         (1, return Cp_reset);
       ]
      @
      if persistent_subs = 0 then []
      else
        [
          ( 2,
            map3
              (fun (t, s) sub d -> Cp_persistent (t, s, sub, d))
              (pair bool (int_range 0 (n - 1)))
              (int_range 0 200) data );
        ])
  in
  let* ops = list_size (int_range 0 80) op in
  return (n, persistent_subs, ops)

let prop_cpoint_oracle =
  QCheck2.Test.make ~name:"dense cpoint state = association-list reference"
    ~count:300 cp_gen (fun (n, persistent_subs, ops) ->
      let reg = registry () in
      let p =
        Cpoint.point reg ~name:cp_name ~component:Sonar_ir.Component.Lsu
          ~sources:(List.init n (Printf.sprintf "s%d"))
          ~persistent_subs ()
      in
      let sv = Cpoint.make_save reg in
      let r = cp_fresh n in
      let saved = ref None in
      let max_subs =
        (max 1 (List.length (cp_pairs n)) * Cpoint.data_buckets) + persistent_subs
      in
      let agrees () =
        let trig = List.sort compare r.r_trig in
        Cpoint.snapshot p
        = {
            Cpoint.point_name = cp_name;
            s_hits = r.r_hits;
            s_min_pair = r.r_min_pair;
            s_min_self = r.r_min_self;
            s_triggered = trig;
            s_digest = r.r_digest;
          }
        && Cpoint.triggered_subs p = trig
        && Cpoint.pair_intervals p = List.sort compare r.r_pair_min
        && Cpoint.triggered_weight p
           = float_of_int (Config.fanout_of Config.boom cp_name)
             *. float_of_int (List.length trig)
             /. float_of_int max_subs
        && Cpoint.window_bounds reg
           = (match (r.r_first, r.r_last) with
             | Some a, Some b -> Some (a, b)
             | _ -> None)
      in
      List.for_all
        (fun op ->
          (match op with
          | Cp_advance d -> Cpoint.set_cycle reg (r.r_cycle + d)
          | Cp_open -> Cpoint.open_window reg
          | Cp_close -> Cpoint.close_window reg
          | Cp_request (tainted, source, data) ->
              Cpoint.request reg p ~tainted ~source ~data
          | Cp_grant source -> Cpoint.grant reg p ~source
          | Cp_persistent (tainted, source, sub, data) ->
              Cpoint.persistent reg p ~tainted ~source ~sub ~data
          | Cp_capture | Cp_restore | Cp_reset -> ());
          (match op with
          | Cp_capture ->
              Cpoint.capture reg sv;
              saved := Some (cp_copy r)
          | Cp_restore -> (
              match !saved with
              | Some s ->
                  Cpoint.restore reg sv;
                  cp_assign r s
              | None -> ())
          | Cp_reset ->
              Cpoint.reset reg;
              cp_assign r (cp_fresh n)
          | _ -> cp_step ~n ~persistent_subs r op);
          agrees ())
        ops)

let test_cpoint_snapshot_diff () =
  let mk hits =
    let reg = registry () in
    let p = Cpoint.point reg ~name:"t.snap" ~component:Sonar_ir.Component.Lsu
        ~sources:[ "a"; "b" ] () in
    Cpoint.open_window reg;
    for c = 1 to hits do
      Cpoint.set_cycle reg c;
      Cpoint.request reg p ~tainted:true ~source:0 ~data:c
    done;
    Cpoint.snapshot p
  in
  checkb "same activity: no diff" true
    (Cpoint.diff_snapshots [ mk 3 ] [ mk 3 ] = []);
  checkb "different activity: diff" true
    (Cpoint.diff_snapshots [ mk 3 ] [ mk 5 ] <> [])

(* --- Ring --- *)

type ring_op = Push of int | Pop | Filter_even | Clear

(* The ring against a list, through wrap-around and growth past the
   initial capacity. *)
let prop_ring_matches_list =
  let op =
    QCheck2.Gen.(
      frequency
        [
          (6, map (fun x -> Push x) (int_range 0 999));
          (3, return Pop);
          (1, return Filter_even);
          (1, return Clear);
        ])
  in
  QCheck2.Test.make ~name:"ring = list model" ~count:200
    QCheck2.Gen.(list_size (int_range 0 120) op)
    (fun ops ->
      let r = Ring.create (-1) in
      let contents () = List.init (Ring.length r) (Ring.get r) in
      let model =
        List.fold_left
          (fun l op ->
            (match op with
            | Push x -> Ring.push r x
            | Pop -> if l <> [] then Ring.pop r
            | Filter_even -> Ring.filter_in_place (fun x -> x mod 2 = 0) r
            | Clear -> Ring.clear r);
            let l =
              match op with
              | Push x -> l @ [ x ]
              | Pop -> ( match l with [] -> [] | _ :: rest -> rest)
              | Filter_even -> List.filter (fun x -> x mod 2 = 0) l
              | Clear -> []
            in
            if contents () <> l then failwith "ring diverged";
            l)
          [] ops
      in
      Ring.is_empty r = (model = []))

(* --- Cache --- *)

let cache_cfg = { Config.size_kb = 32; ways = 8; line_bytes = 64; hit_latency = 3 }

let test_cache_hit_miss () =
  let c = Cache.create cache_cfg in
  checkb "cold miss" false (Cache.probe c 0x1000L);
  ignore (Cache.fill c 0x1000L ~seq:1 ~cycle:10 ~tainted:false);
  checkb "hit after fill" true (Cache.probe c 0x1000L);
  checkb "same line different word" true (Cache.probe c 0x1020L);
  checkb "different line" false (Cache.probe c 0x1040L)

let test_cache_eviction () =
  let c = Cache.create cache_cfg in
  (* 32KB/8w/64B = 64 sets; stride 4096 hits the same set. *)
  for k = 0 to 7 do
    ignore (Cache.fill c (Int64.of_int (4096 * k)) ~seq:k ~cycle:k ~tainted:false)
  done;
  checkb "all ways resident" true (Cache.probe c 0L);
  let victim = Cache.fill c (Int64.of_int (4096 * 8)) ~seq:9 ~cycle:9 ~tainted:true in
  checkb "eviction happened" true (victim <> None);
  checkb "LRU way evicted" false (Cache.probe c 0L);
  checkb "recently evicted recorded" true
    (match Cache.recently_evicted c 0L with
    | Some (9, true) -> true
    | _ -> false)

let test_cache_dirty () =
  let c = Cache.create cache_cfg in
  ignore (Cache.fill c 0x2000L ~seq:1 ~cycle:1 ~tainted:false);
  checkb "clean after fill" false (Cache.is_dirty c 0x2000L);
  checkb "mark dirty" true (Cache.mark_dirty c 0x2000L);
  checkb "dirty now" true (Cache.is_dirty c 0x2000L);
  checkb "mark missing line" false (Cache.mark_dirty c 0x9000L)

let test_cache_fill_info () =
  let c = Cache.create cache_cfg in
  ignore (Cache.fill c 0x3000L ~seq:42 ~cycle:7 ~tainted:true);
  match Cache.lookup c 0x3000L with
  | Some info ->
      checki "filler seq" 42 info.Cache.filler_seq;
      checkb "filler taint" true info.filler_tainted
  | None -> Alcotest.fail "expected hit"

(* Capture/restore and reset against a replayed reference cache.  A small
   cache (8 sets × 4 ways, 6 tags per set) forces evictions; the last set
   is never filled.  Observing an address compares [probe], [is_dirty],
   [recently_evicted] and [lookup] (whose LRU bump both caches take in the
   same order); a further shared op sequence then compares the victims
   each fill picks. *)
let small_cache = { Config.size_kb = 2; ways = 4; line_bytes = 64; hit_latency = 1 }
let small_sets = 8
let addr_of set tag = Int64.of_int (((tag * small_sets) + set) * 64)

type cache_op = Fill of int * int * int * bool | Dirty of int * int

let apply_ops c ops =
  List.map
    (function
      | Fill (set, tag, seq, tainted) ->
          Cache.fill c (addr_of set tag) ~seq ~cycle:seq ~tainted
      | Dirty (set, tag) ->
          ignore (Cache.mark_dirty c (addr_of set tag));
          None)
    ops

let observe c =
  List.concat_map
    (fun set ->
      List.map
        (fun tag ->
          let a = addr_of set tag in
          ( Cache.probe c a,
            Cache.is_dirty c a,
            Cache.recently_evicted c a,
            Cache.lookup c a ))
        (List.init 6 Fun.id))
    (List.init small_sets Fun.id)

let prop_cache_restore_reset =
  let op =
    QCheck2.Gen.(
      let* set = int_range 0 (small_sets - 2) and* tag = int_range 0 5 in
      oneof
        [
          map2 (fun seq tainted -> Fill (set, tag, seq, tainted)) (int_range 0 99) bool;
          return (Dirty (set, tag));
        ])
  in
  let ops = QCheck2.Gen.(list_size (int_range 0 40) op) in
  QCheck2.Test.make ~name:"cache restore = captured state, reset = fresh" ~count:200
    QCheck2.Gen.(triple ops ops ops)
    (fun (before, between, after) ->
      let c = Cache.create small_cache in
      checki "geometry" small_sets (Cache.n_sets c);
      ignore (apply_ops c before);
      let sv = Cache.make_save c in
      Cache.capture c sv;
      ignore (apply_ops c between);
      Cache.restore c sv;
      let reference = Cache.create small_cache in
      ignore (apply_ops reference before);
      let restored_ok =
        observe c = observe reference
        && apply_ops c after = apply_ops reference after
        && observe c = observe reference
      in
      Cache.reset c;
      let fresh = Cache.create small_cache in
      restored_ok
      && observe c = observe fresh
      && apply_ops c after = apply_ops fresh after
      && observe c = observe fresh)

(* --- Exec units --- *)

let test_exec_alu_slots () =
  let reg = registry () in
  let pool = Exec_unit.create Config.boom reg ~core:0 in
  Exec_unit.new_cycle pool ~cycle:1;
  checkb "slot 1" true (Exec_unit.try_issue_alu pool ~cycle:1 ~tainted:false <> None);
  checkb "slot 2" true (Exec_unit.try_issue_alu pool ~cycle:1 ~tainted:false <> None);
  checkb "slot 3" true (Exec_unit.try_issue_alu pool ~cycle:1 ~tainted:false <> None);
  checkb "no slot 4" true (Exec_unit.try_issue_alu pool ~cycle:1 ~tainted:false = None);
  Exec_unit.new_cycle pool ~cycle:2;
  checkb "fresh next cycle" true (Exec_unit.try_issue_alu pool ~cycle:2 ~tainted:false <> None)

let test_exec_div_unpipelined () =
  let reg = registry () in
  let pool = Exec_unit.create Config.boom reg ~core:0 in
  Exec_unit.new_cycle pool ~cycle:1;
  let first = Exec_unit.try_issue_div pool ~cycle:1 ~operand:1000L ~tainted:false in
  checkb "first div accepted" true (first <> None);
  checkb "second div refused" true
    (Exec_unit.try_issue_div pool ~cycle:2 ~operand:1000L ~tainted:false = None);
  let done_at = Option.get first in
  checkb "free after completion" true
    (Exec_unit.try_issue_div pool ~cycle:done_at ~operand:1000L ~tainted:false <> None)

let test_exec_wb_priority () =
  let reg = registry () in
  let pool = Exec_unit.create Config.boom reg ~core:0 in
  (* boom has 2 writeback ports; a div, a mul and two alus contend. *)
  Exec_unit.request_writeback pool Exec_unit.Wb_div ~id:1 ~cycle:5 ~tainted:false;
  Exec_unit.request_writeback pool Exec_unit.Wb_alu ~id:2 ~cycle:5 ~tainted:false;
  Exec_unit.request_writeback pool Exec_unit.Wb_mul ~id:3 ~cycle:5 ~tainted:false;
  Exec_unit.request_writeback pool Exec_unit.Wb_alu ~id:4 ~cycle:5 ~tainted:false;
  let granted = Exec_unit.arbitrate_writeback pool ~cycle:5 in
  Alcotest.(check (list int)) "alus win the ports" [ 2; 4 ] granted;
  let granted2 = Exec_unit.arbitrate_writeback pool ~cycle:6 in
  Alcotest.(check (list int)) "mul then div next" [ 3; 1 ] granted2

let test_exec_mdu_shared () =
  let reg = Cpoint.create Config.nutshell in
  let pool = Exec_unit.create Config.nutshell reg ~core:0 in
  Exec_unit.new_cycle pool ~cycle:1;
  checkb "mul takes mdu" true
    (Exec_unit.try_issue_mul pool ~cycle:1 ~operand:10L ~tainted:false <> None);
  checkb "div blocked by mul" true
    (Exec_unit.try_issue_div pool ~cycle:2 ~operand:10L ~tainted:false = None)

(* --- Machine --- *)

let straightline_program rng_seed =
  let rng = Sonar.Rng.create rng_seed in
  let instrs =
    Sonar.Testcase.random_instr rng
    @ Sonar.Testcase.random_instr rng
    @ Sonar.Testcase.random_instr rng
  in
  Program.make
    (Asm.li (r 11) 0x10000000L @ Asm.li (r 20) 0x10001000L
    @ Asm.li (r 21) 0x10002000L @ Asm.li (r 22) 0x10004000L
    @ instrs @ [ Asm.halt ])

let test_machine_commits_match_golden () =
  (* The timing model must commit exactly the golden architectural trace. *)
  for seed = 1 to 20 do
    let p = straightline_program (Int64.of_int seed) in
    let g = Golden.run p in
    let m = Machine.run_single Config.boom p in
    let commits = m.Machine.cores.(0).commits in
    checki
      (Printf.sprintf "commit count (seed %d)" seed)
      (Array.length g.Golden.trace)
      (List.length commits);
    List.iteri
      (fun i (c : Core_model.commit_record) ->
        checkb "same dynamic instruction" true
          (Instr.equal c.c_eff.Golden.instr g.Golden.trace.(i).Golden.instr))
      commits
  done

let test_machine_commit_order_monotonic () =
  let p = straightline_program 7L in
  let m = Machine.run_single Config.nutshell p in
  let cycles = List.map (fun (c : Core_model.commit_record) -> c.c_cycle)
      m.Machine.cores.(0).commits in
  checkb "commit cycles non-decreasing" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length cycles - 1) cycles)
       (List.tl cycles))

let test_machine_cycle_limit () =
  let p = straightline_program 3L in
  let m = Machine.run_single ~max_cycles:10 Config.boom p in
  checkb "hit the limit" true m.Machine.hit_cycle_limit

let test_machine_dual_core () =
  let p0 = straightline_program 4L and p1 = straightline_program 5L in
  let m =
    Machine.run Config.boom
      [|
        { Machine.program = p0; secret_range = None };
        { Machine.program = p1; secret_range = None };
      |]
  in
  checkb "both cores commit" true
    (m.Machine.cores.(0).commits <> [] && m.Machine.cores.(1).commits <> [])

let test_machine_warm_faster_than_cold () =
  (* Second access to the same line is faster: the memory system works. *)
  let prog warm =
    Program.make
      (Asm.li (r 11) 0x10000000L
      @ (if warm then [ Instr.Load (Instr.LD, r 5, r 11, 0) ] else [ Asm.nop ])
      @ [ Instr.Load (Instr.LD, r 6, r 11, 0); Asm.halt ])
  in
  let cold = Machine.run_single Config.boom (prog false) in
  let warm = Machine.run_single Config.boom (prog true) in
  checkb "warm run not slower" true (warm.Machine.cycles <= cold.Machine.cycles + 60);
  (* The cold run's lone load takes a miss; in the warm run the second load
     hits the line the first brought in, so total cycles are smaller or the
     same despite executing one more load. *)
  checkb "dcache provides reuse" true (warm.Machine.cycles < cold.Machine.cycles + 40)

let test_machine_window_bounds () =
  let p = straightline_program 9L in
  let m =
    Machine.run Config.boom [| { Machine.program = p; secret_range = Some (3, 5) } |]
  in
  match m.Machine.window with
  | Some (a, b) -> checkb "window well-formed" true (a <= b)
  | None -> Alcotest.fail "window never opened"

let test_machine_ctx_bit_identical () =
  (* A reused run context must behave exactly like a fresh machine, even
     when different programs interleave on the same context — no stale
     cache lines, MSHRs, or contention-point state may leak between runs. *)
  let ctx = Machine.Ctx.create Config.boom in
  for seed = 30 to 37 do
    let p = straightline_program (Int64.of_int seed) in
    let inputs = [| { Machine.program = p; secret_range = Some (2, 4) } |] in
    let fresh = Machine.run Config.boom inputs in
    let reused = Machine.run ~ctx Config.boom inputs in
    checkb (Printf.sprintf "ctx run identical (seed %d)" seed) true
      (fresh = reused)
  done

let test_machine_ctx_config_mismatch () =
  let ctx = Machine.Ctx.create Config.boom in
  let p = straightline_program 2L in
  checkb "ctx for another config rejected" true
    (match
       Machine.run ~ctx Config.nutshell
         [| { Machine.program = p; secret_range = None } |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_machine_ctx_allocates_less () =
  (* Reusing a context skips re-allocating the cache line arrays,
     contention-point tables, and the per-core pipeline structures, the
     bulk of a run's minor-heap traffic (measured ~0.12x of a fresh run
     on boom; 0.25 leaves slack). *)
  let p = straightline_program 41L in
  let inputs = [| { Machine.program = p; secret_range = None } |] in
  let ctx = Machine.Ctx.create Config.boom in
  ignore (Machine.run Config.boom inputs);
  ignore (Machine.run ~ctx Config.boom inputs);
  let minor_words_during f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let n = 5 in
  let fresh =
    minor_words_during (fun () ->
        for _ = 1 to n do
          ignore (Machine.run Config.boom inputs)
        done)
  in
  let reused =
    minor_words_during (fun () ->
        for _ = 1 to n do
          ignore (Machine.run ~ctx Config.boom inputs)
        done)
  in
  checkb
    (Printf.sprintf "reused ctx allocates less (fresh %.0f, reused %.0f)"
       fresh reused)
    true
    (reused < 0.25 *. fresh)

(* --- Prefix-checkpointed dual runs --- *)

let test_checkpoint_fork_at_first_instr () =
  (* The very first instruction loads the secret, so the shared prefix is
     empty — yet the divergence is confined to the loaded value and the
     dependent ALU result, which the timing model never reads.  The two
     runs are therefore cycle-identical end to end: the checkpoint is
     captured at the final cycle and run 1 simulates nothing at all, while
     both results stay bit-identical to independent full runs. *)
  let prog secret =
    Program.make
      ~data:[ (8L, Int64.of_int secret) ]
      [
        Instr.Load (Instr.LD, r 5, Reg.x0, 8);
        Instr.Rtype (Instr.ADD, r 6, r 5, r 5);
        Asm.halt;
      ]
  in
  let inputs secret =
    [| { Machine.program = prog secret; secret_range = Some (0, 0) } |]
  in
  let c0, c1, cp =
    Machine.run_dual ~checkpoint:true Config.boom (inputs 0) (inputs 1)
  in
  checki "run1 fully skipped despite fork at instruction 0" c1.Machine.cycles
    cp.Machine.cycles_saved;
  checkb "run0 identical to a full run" true
    (c0 = Machine.run Config.boom (inputs 0));
  checkb "run1 identical to a full run" true
    (c1 = Machine.run Config.boom (inputs 1))

(* Checkpointed dual runs are bit-identical to full dual runs and to two
   independent [Machine.run] calls — commits, snapshots, point stats,
   window, and cycle counts all included in the structural comparison —
   over random testcases on both designs at both core counts. *)
let prop_checkpoint_equivalent =
  QCheck2.Test.make
    ~name:"checkpointed dual run = full dual run (random testcases)" ~count:40
    QCheck2.Gen.(
      triple (int_range 1 10_000) bool (oneofl [ Config.boom; Config.nutshell ]))
    (fun (seed, dual, cfg) ->
      let rng = Sonar.Rng.create (Int64.of_int seed) in
      let tc = Sonar.Testcase.random rng ~id:seed ~dual in
      let i0 = Sonar.Testcase.materialize tc ~secret:0 in
      let i1 = Sonar.Testcase.materialize tc ~secret:1 in
      let c0, c1, _ = Machine.run_dual ~checkpoint:true cfg i0 i1 in
      let f0, f1, fcp = Machine.run_dual ~checkpoint:false cfg i0 i1 in
      fcp.Machine.cycles_saved = 0
      && c0 = f0 && c1 = f1
      && c0 = Machine.run cfg i0
      && c1 = Machine.run cfg i1)

(* Pins the timing model's observable behaviour: a digest of [run_dual]
   results over 40 seeded random testcases × {boom, nutshell} × {single,
   dual core}, on one reused context per design.  Any change to a commit
   or dispatch cycle, a contention snapshot, a point statistic, the
   window, the cycle count or the checkpoint's saved cycles moves it.
   A performance change to the model must leave the constant alone; a
   deliberate behaviour change updates it and says why. *)
(* The model-digest testcase set: 40 seeded random testcases, single- or
   dual-core, materialized under both secrets. *)
let digest_cases dual =
  List.init 40 (fun k ->
      let seed = k + 1 in
      let rng = Sonar.Rng.create (Int64.of_int seed) in
      let tc = Sonar.Testcase.random rng ~id:seed ~dual in
      (Sonar.Testcase.materialize tc ~secret:0, Sonar.Testcase.materialize tc ~secret:1))

let digest_configs = [ Config.boom; Config.nutshell ]

let model_digest () =
  let b = Buffer.create (1 lsl 16) in
  let add v = Buffer.add_string b (Marshal.to_string v [ Marshal.No_sharing ]) in
  let add_result (m : Machine.result) =
    Array.iter
      (fun (c : Machine.core_result) ->
        add
          (List.map
             (fun (r : Core_model.commit_record) -> (r.c_cycle, r.c_dispatch))
             c.commits))
      m.cores;
    add (Machine.snapshots m);
    add (Machine.point_stats m);
    add (m.cycles, m.window, m.hit_cycle_limit)
  in
  List.iter
    (fun cfg ->
      let ctx = Machine.Ctx.create cfg in
      List.iter
        (fun dual ->
          List.iter
            (fun (i0, i1) ->
              let r0, r1, cp = Machine.run_dual ~ctx cfg i0 i1 in
              add_result r0;
              add_result r1;
              add cp.Machine.cycles_saved)
            (digest_cases dual))
        [ false; true ])
    digest_configs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_machine_model_digest () =
  Alcotest.(check string) "run_dual digest" "ca144254b78c37f47c68dec8ea903071"
    (model_digest ())

(* Allocation ceiling for the cycle loop, in the spirit of the RTL
   engine's zero-allocation test: minor-heap words allocated by
   [Machine.run_dual] over the model-digest testcase set, one reused
   context per design (testcase generation is outside the count).  The
   count repeats exactly on one domain; the bound is the measured count
   plus 10%, so a change that brings back per-cycle garbage fails here. *)
let run_dual_words_measured = 3_431_021.
let run_dual_words_bound = run_dual_words_measured *. 1.10

let test_machine_alloc_ceiling () =
  let cases = [ digest_cases false; digest_cases true ] in
  let words = ref 0. in
  List.iter
    (fun cfg ->
      let ctx = Machine.Ctx.create cfg in
      List.iter
        (fun l ->
          let before = Gc.minor_words () in
          List.iter (fun (i0, i1) -> ignore (Machine.run_dual ~ctx cfg i0 i1)) l;
          words := !words +. (Gc.minor_words () -. before))
        cases)
    digest_configs;
  checkb
    (Printf.sprintf "run_dual minor words %.0f <= %.0f" !words run_dual_words_bound)
    true
    (!words <= run_dual_words_bound)

(* Golden/uarch architectural equivalence over random testcases. *)
let prop_machine_matches_golden =
  QCheck2.Test.make ~name:"uarch commits = golden trace (random testcases)"
    ~count:25
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Sonar.Rng.create (Int64.of_int seed) in
      let tc = Sonar.Testcase.random rng ~id:seed ~dual:false in
      let inputs = Sonar.Testcase.materialize tc ~secret:1 in
      let g = Golden.run inputs.(0).Machine.program in
      let m = Machine.run Config.boom inputs in
      List.length m.Machine.cores.(0).commits = Array.length g.Golden.trace)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sonar_uarch"
    [
      ( "config",
        [
          Alcotest.test_case "lookup" `Quick test_config_lookup;
          Alcotest.test_case "table 1 values" `Quick test_config_table1;
          Alcotest.test_case "fanout prefixes" `Quick test_config_fanout_prefix;
        ] );
      ( "cpoint",
        [
          Alcotest.test_case "intervals and triggers" `Quick test_cpoint_intervals_and_triggers;
          Alcotest.test_case "taint gating" `Quick test_cpoint_taint_gating;
          Alcotest.test_case "dominance counter" `Quick test_cpoint_dominance_counter;
          Alcotest.test_case "window gating" `Quick test_cpoint_window_gating;
          Alcotest.test_case "single source" `Quick test_cpoint_single_source;
          Alcotest.test_case "pair names" `Quick test_cpoint_pair_name;
          Alcotest.test_case "persistent subs" `Quick test_cpoint_persistent;
          Alcotest.test_case "snapshot diff" `Quick test_cpoint_snapshot_diff;
          Alcotest.test_case "persistent needs declared subs" `Quick
            test_cpoint_persistent_undeclared;
        ]
        @ qcheck [ prop_cpoint_oracle ] );
      ("ring", qcheck [ prop_ring_matches_list ]);
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "eviction + LRU" `Quick test_cache_eviction;
          Alcotest.test_case "dirty bits" `Quick test_cache_dirty;
          Alcotest.test_case "fill info" `Quick test_cache_fill_info;
        ]
        @ qcheck [ prop_cache_restore_reset ] );
      ( "exec_unit",
        [
          Alcotest.test_case "alu slots" `Quick test_exec_alu_slots;
          Alcotest.test_case "div unpipelined" `Quick test_exec_div_unpipelined;
          Alcotest.test_case "writeback priority" `Quick test_exec_wb_priority;
          Alcotest.test_case "nutshell mdu" `Quick test_exec_mdu_shared;
        ] );
      ( "machine",
        [
          Alcotest.test_case "commits match golden" `Quick test_machine_commits_match_golden;
          Alcotest.test_case "commit order" `Quick test_machine_commit_order_monotonic;
          Alcotest.test_case "cycle limit" `Quick test_machine_cycle_limit;
          Alcotest.test_case "dual core" `Quick test_machine_dual_core;
          Alcotest.test_case "cache reuse" `Quick test_machine_warm_faster_than_cold;
          Alcotest.test_case "monitoring window" `Quick test_machine_window_bounds;
          Alcotest.test_case "ctx reuse bit-identical" `Quick
            test_machine_ctx_bit_identical;
          Alcotest.test_case "ctx config mismatch" `Quick
            test_machine_ctx_config_mismatch;
          Alcotest.test_case "ctx allocates less" `Quick
            test_machine_ctx_allocates_less;
          Alcotest.test_case "checkpoint fork at instruction 0" `Quick
            test_checkpoint_fork_at_first_instr;
          Alcotest.test_case "model digest" `Quick test_machine_model_digest;
          Alcotest.test_case "run_dual allocation ceiling" `Quick
            test_machine_alloc_ceiling;
        ]
        @ qcheck [ prop_machine_matches_golden; prop_checkpoint_equivalent ] );
    ]
