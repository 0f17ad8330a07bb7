type point = {
  id : string;
  module_name : string;
  component : Component.t;
  output : string;
  selects : string list;
  requests : Expr.t list;
  depth : int;
  absorbed_muxes : int;
}

(* Accumulator threaded through a single cascade trace. *)
type trace = {
  mutable sels : string list;
  mutable leaves : Expr.t list;
  mutable muxes : int;
  mutable max_depth : int;
}

let naive_mux_count m =
  List.fold_left
    (fun acc -> function
      | Stmt.Node { expr = e; _ } | Stmt.Connect { src = e; _ } -> acc + Expr.count_muxes e
      | Stmt.Input _ | Stmt.Output _ | Stmt.Wire _ | Stmt.Reg _ -> acc)
    0 m.Fmodule.stmts

let rec has_mux = function
  | Expr.Mux _ -> true
  | Expr.Ref _ | Expr.Lit _ -> false
  | Expr.Prim { args; _ } -> List.exists has_mux args

(* Names whose definition is a MUX at the top of its expression: cascades
   extend through these. *)
let mux_rooted_defs defs =
  let table = Hashtbl.create 32 in
  Hashtbl.iter
    (fun name (_, expr) ->
      match expr with Expr.Mux _ -> Hashtbl.replace table name expr | _ -> ())
    defs;
  table

let points_of_module m =
  (* Only names with a MUX-carrying definition are hashed, to their last
     definition and its position: a later MUX-free definition overwrites
     (last connect wins).  A definition without a MUX can be neither
     MUX-rooted nor absorb anything, so the rest of the module costs one
     expression walk per statement.  [carriers] lists the MUX-carrying
     definitions, in reverse order. *)
  let defs = Hashtbl.create 16 in
  let carriers = ref [] in
  let pos = ref 0 in
  let define name expr =
    if has_mux expr then begin
      Hashtbl.replace defs name (!pos, expr);
      carriers := (!pos, name, expr) :: !carriers
    end
    else if Hashtbl.length defs > 0 && Hashtbl.mem defs name then
      Hashtbl.replace defs name (!pos, expr);
    incr pos
  in
  List.iter
    (function
      | Stmt.Node { name; expr } -> define name expr
      | Stmt.Connect { dst; src } -> define dst src
      | Stmt.Input _ | Stmt.Output _ | Stmt.Wire _ | Stmt.Reg _ -> ())
    m.Fmodule.stmts;
  let mux_defs = mux_rooted_defs defs in
  (* Trace one cascade rooted at [expr]. [visited] prevents loops through
     named signals. Depth counts nested 2:1 levels. *)
  (* MUXes inside select expressions are not part of the cascade: they root
     their own trees and are collected into [sel_roots]. *)
  let trace_root root_expr =
    let tr = { sels = []; leaves = []; muxes = 0; max_depth = 0 } in
    let sel_roots = ref [] in
    let visited = Hashtbl.create 8 in
    let rec sel_muxes expr =
      match expr with
      | Expr.Mux _ -> sel_roots := expr :: !sel_roots
      | Expr.Ref _ | Expr.Lit _ -> ()
      | Expr.Prim { args; _ } -> List.iter sel_muxes args
    in
    let rec descend depth expr =
      match expr with
      | Expr.Mux { sel; tval; fval } ->
          tr.muxes <- tr.muxes + 1;
          if depth > tr.max_depth then tr.max_depth <- depth;
          tr.sels <- List.rev_append (Expr.refs sel) tr.sels;
          sel_muxes sel;
          leaf (depth + 1) tval;
          leaf (depth + 1) fval
      | _ -> assert false
    and leaf depth expr =
      match expr with
      | Expr.Mux _ -> descend depth expr
      | Expr.Ref name when Hashtbl.mem mux_defs name && not (Hashtbl.mem visited name)
        ->
          Hashtbl.replace visited name ();
          descend depth (Hashtbl.find mux_defs name)
      | other ->
          (* The trace stops here: [other] is a request. MUXes nested under
             non-MUX operators inside it root their own points. *)
          (match other with
          | Expr.Prim { args; _ } -> List.iter sel_muxes args
          | Expr.Ref _ | Expr.Lit _ | Expr.Mux _ -> ());
          tr.leaves <- other :: tr.leaves
    in
    descend 1 root_expr;
    (tr, List.rev !sel_roots)
  in
  (* A named MUX definition is absorbed (not a separate point) when some
     other expression consumes it in a tval/fval position. *)
  let absorbed = Hashtbl.create 32 in
  let rec mark_absorbed in_data_pos expr =
    match expr with
    | Expr.Mux { sel; tval; fval } ->
        mark_absorbed false sel;
        mark_absorbed true tval;
        mark_absorbed true fval
    | Expr.Ref name when in_data_pos && Hashtbl.mem mux_defs name ->
        Hashtbl.replace absorbed name ()
    | Expr.Ref _ | Expr.Lit _ -> ()
    | Expr.Prim { args; _ } -> List.iter (mark_absorbed false) args
  in
  Hashtbl.iter (fun _ (_, expr) -> mark_absorbed false expr) defs;
  (* Roots: (a) named defs whose top expr is a MUX and which are not absorbed;
     (b) maximal MUX subexpressions embedded in non-MUX contexts. *)
  let dedup l =
    let seen = Hashtbl.create 8 in
    List.filter (fun x ->
        if Hashtbl.mem seen x then false
        else begin
          Hashtbl.add seen x ();
          true
        end)
      l
  in
  let points = ref [] in
  let emit p = points := p :: !points in
  (* Tracing one root may reveal further roots inside its select
     expressions; those are traced too (recursively).  [path] holds the
     roots being traced: a select MUX that reaches itself again through
     named definitions is not re-traced, which keeps select cycles finite. *)
  let rec make_point ?(path = []) ~output ~id root_expr =
    let tr, sel_roots = trace_root root_expr in
    emit
      {
        id;
        module_name = m.Fmodule.name;
        component = m.Fmodule.component;
        output;
        selects = dedup (List.rev tr.sels);
        requests = List.rev tr.leaves;
        depth = tr.max_depth;
        absorbed_muxes = tr.muxes;
      };
    let path = root_expr :: path in
    List.iteri
      (fun i sub ->
        if not (List.memq sub path) then
          make_point ~path ~output ~id:(id ^ ".sel" ^ string_of_int i) sub)
      sel_roots
  in
  (* Embedded roots inside an arbitrary expression; [idx] disambiguates. *)
  let rec embedded_roots output idx expr =
    match expr with
    | Expr.Mux _ ->
        let id = m.Fmodule.name ^ "." ^ output ^ "." ^ string_of_int !idx in
        incr idx;
        make_point ~output ~id expr
    | Expr.Ref _ | Expr.Lit _ -> ()
    | Expr.Prim { args; _ } -> List.iter (embedded_roots output idx) args
  in
  (* Only the effective (last) definition of each name is traced. *)
  List.iter
    (fun (pos, name, expr) ->
      if fst (Hashtbl.find defs name) = pos then
        match expr with
        | Expr.Mux _ ->
            if not (Hashtbl.mem absorbed name) then
              make_point ~output:name ~id:(m.Fmodule.name ^ "." ^ name) expr
        | _ ->
            let idx = ref 0 in
            embedded_roots name idx expr)
    (List.rev !carriers);
  List.rev !points

let request_count p = List.length p.requests

let pp_point fmt p =
  Format.fprintf fmt
    "@[<v 2>point %s (component %a):@,\
     output %s, depth %d, %d mux(es)@,\
     selects: %a@,\
     requests: %a@]"
    p.id Component.pp p.component p.output p.depth p.absorbed_muxes
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Format.pp_print_string)
    p.selects
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Expr.pp)
    p.requests
