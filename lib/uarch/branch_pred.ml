module Pc_tbl = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash pc = Int_tbl.hash (Int64.to_int pc)
end)

type t = {
  btb : int64 Pc_tbl.t;
  counters : int Pc_tbl.t;  (* 2-bit saturating, 0-3 *)
}

let create (_cfg : Config.t) = { btb = Pc_tbl.create 64; counters = Pc_tbl.create 64 }

let counter t pc =
  match Pc_tbl.find t.counters pc with c -> c | exception Not_found -> 1

let btb_holds t ~pc ~target =
  match Pc_tbl.find t.btb pc with
  | btb_target -> Int64.equal btb_target target
  | exception Not_found -> false

let predict t ~pc ~taken ~target =
  let dir_pred = counter t pc >= 2 in
  if taken then dir_pred && btb_holds t ~pc ~target else not dir_pred

let predict_jump t ~pc ~target = btb_holds t ~pc ~target

let update t ~pc ~taken ~target =
  let c = counter t pc in
  Pc_tbl.replace t.counters pc (if taken then min 3 (c + 1) else max 0 (c - 1));
  if taken then Pc_tbl.replace t.btb pc target

let update_jump t ~pc ~target = Pc_tbl.replace t.btb pc target

let reset t =
  Pc_tbl.reset t.btb;
  Pc_tbl.reset t.counters

type save = {
  mutable s_btb : (int64 * int64) list;
  mutable s_counters : (int64 * int) list;
}

let make_save () = { s_btb = []; s_counters = [] }

let capture t sv =
  sv.s_btb <- Pc_tbl.fold (fun k v acc -> (k, v) :: acc) t.btb [];
  sv.s_counters <- Pc_tbl.fold (fun k v acc -> (k, v) :: acc) t.counters []

let restore t sv =
  Pc_tbl.reset t.btb;
  List.iter (fun (k, v) -> Pc_tbl.replace t.btb k v) sv.s_btb;
  Pc_tbl.reset t.counters;
  List.iter (fun (k, v) -> Pc_tbl.replace t.counters k v) sv.s_counters
