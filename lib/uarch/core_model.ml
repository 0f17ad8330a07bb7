open Sonar_isa

type commit_record = {
  c_eff : Golden.effect;
  c_cycle : int;
  c_dispatch : int;
}

type uop_state = Dispatched | Issued | Wait_mem | Exec_done | Done

type uop = {
  eff : Golden.effect;
  trace_pos : int;  (* -1 for transient micro-ops *)
  transient : bool;
  secret_dep : bool;
  id : int;
  (* Decode facts of [eff.instr], fixed at fetch. *)
  dest : int;  (* destination register, -1 for none (or x0) *)
  is_load : bool;
  is_store : bool;
  (* The next three are set once, when [step_dispatch] moves the uop into
     the ROB. *)
  mutable dispatch_cycle : int;
  mutable tainted : bool;
      (* secret-dependent, directly (static region / transient) or through
         a register data dependency resolved at dispatch *)
  mutable producers : uop list;
      (* the ROB uops producing its non-x0 sources, at dispatch *)
  mutable state : uop_state;
  mutable complete_at : int;
  mutable mispredicted : bool;
  mutable resolved_target : int64;  (* actual target, for predictor training *)
}

type fetch_source = Arch | Trans of Golden.effect array * int

type stbuf_state = Drain_new | Drain_waiting

type stbuf_entry = {
  sb_uop : uop;
  mutable sb_state : stbuf_state;
}

type t = {
  cfg : Config.t;
  reg : Cpoint.registry;
  ms : Memsys.t;
  core_id : int;
  mutable trace : Golden.effect array;
  transients : (int, Golden.effect array) Hashtbl.t;
  mutable secret_range : (int * int) option;
  drives_window : bool;
  mutable secret_total : int;
  mutable secret_committed : int;
  (* Fetch state *)
  mutable fetch_pos : int;
  mutable fetch_source : fetch_source;
  mutable fetch_stall_until : int;
  mutable fetch_halted : bool;
  mutable blocked_on_branch : int;  (* uop id, -1 for none *)
  line_shift : int;  (* ICache line number = pc lsr line_shift *)
  lines : int Int_tbl.t;
      (* touched line number -> cycle available, or [refill_pending] *)
  (* Pipeline structures (oldest first). *)
  fb : uop Ring.t;
  rob : uop Ring.t;
  stbuf : stbuf_entry Ring.t;
  taint_reg : bool array;  (* architectural-register taint, dispatch order *)
  mutable next_id : int;
  pool : Exec_unit.t;
  bp : Branch_pred.t;
  (* Results *)
  mutable commit_log : commit_record list;  (* reverse order *)
  mutable transient_issued : int;
  mutable cycles : int;
  mutable pending_early_squash : uop option;
  (* Contention points owned by the core. *)
  p_fb_enq : Cpoint.t;
  p_pc_sel : Cpoint.t;
  p_icache_mshr : Cpoint.t;
  p_bpd_update : Cpoint.t;
  p_rob_enq : Cpoint.t;
  p_rob_commit : Cpoint.t;
  p_rob_exception : Cpoint.t;
  p_ldq_stq : Cpoint.t;
  p_stq_drain : Cpoint.t;
}

(* Fills the vacated slots of the pipeline rings. *)
let dummy_uop =
  {
    eff =
      {
        Golden.seq = -1;
        index = -1;
        pc = 0L;
        instr = Instr.Fence;
        wb = None;
        mem = None;
        taken = None;
        fault = None;
        transient = false;
      };
    trace_pos = -1;
    transient = false;
    secret_dep = false;
    id = -1;
    dest = -1;
    is_load = false;
    is_store = false;
    dispatch_cycle = -1;
    tainted = false;
    producers = [];
    state = Done;
    complete_at = max_int;
    mispredicted = false;
    resolved_target = 0L;
  }

let dummy_entry = { sb_uop = dummy_uop; sb_state = Drain_new }

let count_secret trace range =
  match range with
  | None -> 0
  | Some (lo, hi) ->
      Array.fold_left
        (fun acc (e : Golden.effect) ->
          if e.index >= lo && e.index <= hi then acc + 1 else acc)
        0 trace

let create cfg reg ms ~core_id ~outcome ~secret_range ~drives_window =
  let open Sonar_ir.Component in
  let pt ?single_valid ?persistent_subs name component sources =
    Cpoint.point reg
      ~name:(Printf.sprintf "c%d.%s" core_id name)
      ~component ~sources ?persistent_subs ?single_valid ()
  in
  let transients = Hashtbl.create 4 in
  List.iter
    (fun (pos, cont) -> Hashtbl.replace transients pos cont)
    outcome.Golden.transients;
  let t =
    {
      cfg;
      reg;
      ms;
      core_id;
      trace = outcome.Golden.trace;
      transients;
      secret_range;
      drives_window;
      secret_total = count_secret outcome.Golden.trace secret_range;
      secret_committed = 0;
      fetch_pos = 0;
      fetch_source = Arch;
      fetch_stall_until = 0;
      fetch_halted = false;
      blocked_on_branch = -1;
      line_shift = Cache.line_shift cfg.icache;
      lines = Int_tbl.create 32;
      fb = Ring.create dummy_uop;
      rob = Ring.create dummy_uop;
      stbuf = Ring.create dummy_entry;
      taint_reg = Array.make 32 false;
      next_id = 0;
      pool = Exec_unit.create cfg reg ~core:core_id;
      bp = Branch_pred.create cfg;
      commit_log = [];
      transient_issued = 0;
      cycles = 0;
      pending_early_squash = None;
      p_fb_enq =
        pt ~single_valid:true "frontend.fb_enq" Frontend
          (List.init cfg.fetch_width (Printf.sprintf "slot%d"));
      p_pc_sel = pt "frontend.pc_sel" Frontend [ "seq"; "branch"; "exception" ];
      p_icache_mshr = pt "icache.mshr" Frontend [ "fetch_miss" ];
      p_bpd_update = pt "bpd.update" Frontend [ "update" ];
      p_rob_enq =
        pt ~single_valid:true "rob.enq" Rob
          (List.init cfg.decode_width (Printf.sprintf "slot%d"));
      p_rob_commit =
        pt ~single_valid:true "rob.commit" Rob
          (List.init cfg.commit_width (Printf.sprintf "slot%d"));
      p_rob_exception = pt "rob.exception" Rob [ "exception" ];
      p_ldq_stq = pt "lsu.ldq_stq_idx" Lsu [ "load"; "store" ];
      p_stq_drain = pt "stq.drain" Lsu [ "drain_valid" ];
    }
  in
  (* With no secret-dependent region the whole run is the window. *)
  if drives_window && secret_range = None then Cpoint.open_window reg;
  t

let prepare t ~outcome ~secret_range =
  (* Re-arm an existing core for a new run: same role (core_id,
     drives_window, registered points), new golden trace. Rewinds every
     dynamic field to what [create] initialises, so a prepared core
     behaves bit-identically to a fresh one — the [Machine.Ctx] per-core
     reuse contract. *)
  t.trace <- outcome.Golden.trace;
  Hashtbl.reset t.transients;
  List.iter
    (fun (pos, cont) -> Hashtbl.replace t.transients pos cont)
    outcome.Golden.transients;
  t.secret_range <- secret_range;
  t.secret_total <- count_secret outcome.Golden.trace secret_range;
  t.secret_committed <- 0;
  t.fetch_pos <- 0;
  t.fetch_source <- Arch;
  t.fetch_stall_until <- 0;
  t.fetch_halted <- false;
  t.blocked_on_branch <- -1;
  Int_tbl.reset t.lines;
  Ring.clear t.fb;
  Ring.clear t.rob;
  Ring.clear t.stbuf;
  Array.fill t.taint_reg 0 (Array.length t.taint_reg) false;
  t.next_id <- 0;
  Exec_unit.reset t.pool;
  Branch_pred.reset t.bp;
  t.commit_log <- [];
  t.transient_issued <- 0;
  t.cycles <- 0;
  t.pending_early_squash <- None;
  if t.drives_window && secret_range = None then Cpoint.open_window t.reg

let line_of t pc = Int64.to_int (Int64.shift_right_logical pc t.line_shift)

(* --- Fetch --- *)

let has_next t =
  match t.fetch_source with
  | Arch -> t.fetch_pos < Array.length t.trace
  | Trans (cont, idx) -> idx < Array.length cont

(* The effect fetch consumes next; requires [has_next]. *)
let next_eff t =
  match t.fetch_source with
  | Arch -> t.trace.(t.fetch_pos)
  | Trans (cont, idx) -> cont.(idx)

let consume_next t =
  match t.fetch_source with
  | Arch -> t.fetch_pos <- t.fetch_pos + 1
  | Trans (cont, idx) -> t.fetch_source <- Trans (cont, idx + 1)

let is_secret_dep t (eff : Golden.effect) =
  match t.secret_range with
  | Some (lo, hi) -> eff.index >= lo && eff.index <= hi
  | None -> false

let next_pc_after t pos (eff : Golden.effect) =
  (* Actual next PC, for jump-target prediction. *)
  match t.fetch_source with
  | Arch when pos >= 0 && pos + 1 < Array.length t.trace -> t.trace.(pos + 1).pc
  | Arch | Trans _ -> Int64.add eff.pc 4L

let refill_pending = -1

let line_ready t line ~cycle ~tainted =
  match Int_tbl.find t.lines line with
  | c when c <> refill_pending -> c <= cycle
  | _ -> (
      match Memsys.ifetch_ready t.ms ~core:t.core_id ~line with
      | Some c ->
          Int_tbl.replace t.lines line c;
          c <= cycle
      | None -> false)
  | exception Not_found -> (
      (* First touch: the line address, boxed only on this path. *)
      let addr = Int64.shift_left (Int64.of_int line) t.line_shift in
      match Memsys.ifetch t.ms ~core:t.core_id ~addr ~cycle ~tainted with
      | Memsys.Ready c ->
          Int_tbl.replace t.lines line c;
          c <= cycle
      | Memsys.Waiting ->
          Cpoint.request ~tainted t.reg t.p_icache_mshr ~source:0
            ~data:(Int64.to_int addr);
          Int_tbl.replace t.lines line refill_pending;
          false
      | Memsys.Blocked _ -> false)

let make_uop t eff trace_pos transient ~cycle =
  let id = t.next_id in
  t.next_id <- id + 1;
  let i = eff.Golden.instr in
  {
    eff;
    trace_pos;
    transient;
    secret_dep = is_secret_dep t eff;
    id;
    dest = (match Instr.dest i with Some d -> Reg.to_int d | None -> -1);
    is_load = Instr.is_load i;
    is_store = Instr.is_store i;
    producers = [];
    state = Dispatched;
    complete_at = max_int;
    dispatch_cycle = cycle;
    mispredicted = false;
    resolved_target = 0L;
    tainted = is_secret_dep t eff || transient;
  }

let step_fetch t ~cycle =
  if
    t.fetch_halted || cycle < t.fetch_stall_until
    || t.blocked_on_branch >= 0
  then ()
  else begin
    let budget = ref t.cfg.fetch_width in
    let fetched_any = ref false in
    let fetched_tainted = ref false in
    let stop = ref false in
    let fb_n = ref (Ring.length t.fb) in
    (* A line found ready stays ready for the rest of this call. *)
    let ready_line = ref (-1) in
    while (not !stop) && !budget > 0 && !fb_n < t.cfg.fetch_buffer do
      if not (has_next t) then stop := true
      else begin
        let eff = next_eff t in
        let transient = match t.fetch_source with Trans _ -> true | Arch -> false in
        let pos = if transient then -1 else t.fetch_pos in
        let static_taint = is_secret_dep t eff || transient in
        let line = line_of t eff.pc in
        if line <> !ready_line && not (line_ready t line ~cycle ~tainted:static_taint)
        then stop := true
        else begin
          ready_line := line;
          consume_next t;
          let u = make_uop t eff pos transient ~cycle in
          let slot = t.cfg.fetch_width - !budget in
          Cpoint.request ~tainted:u.tainted t.reg t.p_fb_enq ~source:slot
            ~data:(Int64.to_int eff.pc);
          Ring.push t.fb u;
          incr fb_n;
          decr budget;
          fetched_any := true;
          if u.tainted then fetched_tainted := true;
          (* Branch prediction. *)
          (match eff.instr with
          | Instr.Branch (_, _, _, off) ->
              Cpoint.request ~tainted:u.tainted t.reg t.p_bpd_update ~source:0
                ~data:(Int64.to_int eff.pc);
              let taken = Option.value ~default:false eff.taken in
              let target = Int64.add eff.pc (Int64.of_int off) in
              u.resolved_target <- target;
              let correct = Branch_pred.predict t.bp ~pc:eff.pc ~taken ~target in
              if not correct then begin
                u.mispredicted <- true;
                t.blocked_on_branch <- u.id;
                stop := true
              end
          | Instr.Jal (_, off) ->
              let target = Int64.add eff.pc (Int64.of_int off) in
              u.resolved_target <- target;
              if not (Branch_pred.predict_jump t.bp ~pc:eff.pc ~target) then begin
                u.mispredicted <- true;
                t.blocked_on_branch <- u.id;
                stop := true
              end
          | Instr.Jalr _ ->
              let target = next_pc_after t pos eff in
              u.resolved_target <- target;
              if not (Branch_pred.predict_jump t.bp ~pc:eff.pc ~target) then begin
                u.mispredicted <- true;
                t.blocked_on_branch <- u.id;
                stop := true
              end
          | _ -> ());
          (* Architectural faults fork the transient continuation. *)
          (if (not transient) && pos >= 0 then
             match eff.fault with
             | Some (Golden.Load_access_fault | Golden.Store_access_fault) -> (
                 match Hashtbl.find_opt t.transients pos with
                 | Some cont -> t.fetch_source <- Trans (cont, 0)
                 | None -> ())
             | Some _ | None -> ());
          if (match eff.instr with Instr.Ebreak -> true | _ -> false)
             && not transient
          then begin
            t.fetch_halted <- true;
            stop := true
          end
        end
      end
    done;
    if !fetched_any then
      Cpoint.request ~tainted:!fetched_tainted t.reg t.p_pc_sel ~source:0
        ~data:cycle
  end

(* --- Dispatch --- *)

(* The youngest ROB uop older than [u] writing register [r], searching
   down from ROB index [k]; [dummy_uop] if none. *)
let rec producer_of t u r k =
  if k < 0 then dummy_uop
  else begin
    let v = Ring.get t.rob k in
    if v.id < u.id && v.dest = r then v else producer_of t u r (k - 1)
  end

(* The ROB uop with id [id] among ROB indices [[lo, hi)], or [dummy_uop]:
   ids increase from the ROB head. *)
let rec rob_search t id lo hi =
  if lo >= hi then dummy_uop
  else begin
    let mid = (lo + hi) / 2 in
    let v = Ring.get t.rob mid in
    if v.id = id then v
    else if v.id < id then rob_search t id (mid + 1) hi
    else rob_search t id lo mid
  end

let rob_find t id = rob_search t id 0 (Ring.length t.rob)

let step_dispatch t ~cycle =
  if not (Ring.is_empty t.fb) then begin
    let phys_budget = max 8 (t.cfg.int_phys_regs - 32) in
    (* Occupancy, counted once and bumped per dispatched uop. *)
    let dests = ref 0 and loads = ref 0 in
    let stores = ref (Ring.length t.stbuf) in
    let count (u : uop) =
      if u.dest >= 0 then incr dests;
      if u.is_load then incr loads;
      if u.is_store then incr stores
    in
    for k = 0 to Ring.length t.rob - 1 do
      count (Ring.get t.rob k)
    done;
    let budget = ref t.cfg.decode_width in
    let stop = ref false in
    while (not !stop) && !budget > 0 do
      if Ring.is_empty t.fb then stop := true
      else begin
        let u = Ring.get t.fb 0 in
        let i = u.eff.Golden.instr in
        let rob_full = Ring.length t.rob >= t.cfg.rob_entries in
        let phys_full = u.dest >= 0 && !dests >= phys_budget in
        let ldq_full =
          u.is_load
          &&
          match t.cfg.ldq_entries with Some n -> !loads >= n | None -> false
        in
        let stq_full = u.is_store && !stores >= t.cfg.stq_entries in
        if rob_full || phys_full || ldq_full || stq_full then stop := true
        else begin
          Ring.pop t.fb;
          (* Forward dataflow taint: dispatch happens in program order. *)
          let tainted =
            u.tainted
            || List.exists (fun r -> t.taint_reg.(Reg.to_int r)) (Instr.sources i)
          in
          (* Operand links, resolved once as [u] enters the ROB.  Later
             scans of the ROB would find the same producer or none at
             all: dispatch is in order, so no older writer arrives after
             [u]; a producer that has committed took every older writer
             with it (operand ready); a squashed producer takes [u] with
             it. *)
          let producers =
            List.filter_map
              (fun r ->
                if Reg.equal r Reg.x0 then None
                else
                  let v = producer_of t u (Reg.to_int r) (Ring.length t.rob - 1) in
                  if v == dummy_uop then None else Some v)
              (Instr.sources i)
          in
          u.dispatch_cycle <- cycle;
          u.tainted <- tainted;
          u.producers <- producers;
          if u.dest >= 0 then t.taint_reg.(u.dest) <- u.tainted;
          Ring.push t.rob u;
          count u;
          let slot = t.cfg.decode_width - !budget in
          Cpoint.request ~tainted:u.tainted t.reg t.p_rob_enq ~source:slot
            ~data:(Int64.to_int u.eff.Golden.pc);
          decr budget;
          if t.drives_window && u.secret_dep && not (Cpoint.window_open t.reg)
          then Cpoint.open_window t.reg
        end
      end
    done
  end

(* --- Operand readiness --- *)

let value_ready v ~cycle =
  match v.state with
  | Exec_done | Done -> v.complete_at <= cycle
  | Dispatched | Issued | Wait_mem -> false

(* Every linked producer satisfies [ready].  A committed producer is
   [Done] with [complete_at] at or before its commit cycle, so it reads as
   ready.  Callers pass closed functions, so a check allocates nothing. *)
let rec producers_satisfy t ready ~cycle = function
  | [] -> true
  | v :: rest -> ready t v ~cycle && producers_satisfy t ready ~cycle rest

let operands_ready t u ~cycle =
  producers_satisfy t (fun _ v ~cycle -> value_ready v ~cycle) ~cycle u.producers

let same_word a b = Int64.equal (Int64.logand a (-8L)) (Int64.logand b (-8L))

let writes_word (v : uop) addr =
  match v.eff.Golden.mem with
  | Some vm -> same_word vm.addr addr
  | None -> false

(* The youngest ROB store older than [u], at or below ROB index [k], that
   writes [addr]'s 8-byte word. *)
let rec older_store t u addr k =
  if k < 0 then None
  else begin
    let v = Ring.get t.rob k in
    if v.id < u.id && v.is_store && writes_word v addr then Some v
    else older_store t u addr (k - 1)
  end

(* Older store to the same 8-byte word: forwarding source or hazard. *)
let older_store_same_addr t u =
  match u.eff.Golden.mem with
  | None -> None
  | Some m -> older_store t u m.addr (Ring.length t.rob - 1)

let rec in_store_buffer_from t addr k =
  k < Ring.length t.stbuf
  && (writes_word (Ring.get t.stbuf k).sb_uop addr
     || in_store_buffer_from t addr (k + 1))

let in_store_buffer t addr = in_store_buffer_from t addr 0

(* --- Issue --- *)

type op_class = Class_alu | Class_mul | Class_div | Class_load | Class_store

let classify (i : Instr.t) =
  match i with
  | Instr.Rtype ((MUL | MULH | MULHSU | MULHU | MULW), _, _, _) -> Class_mul
  | Instr.Rtype ((DIV | DIVU | REM | REMU | DIVW | DIVUW | REMW | REMUW), _, _, _)
    ->
      Class_div
  | _ when Instr.is_load i -> Class_load
  | _ when Instr.is_store i -> Class_store
  | _ -> Class_alu

let magnitude_of (e : Golden.effect) =
  match e.Golden.wb with Some (_, v) -> v | None -> 1024L

let operand_magnitude (u : uop) = magnitude_of u.eff

(* Equality on every effect field the backend reads once a uop has entered
   the ROB: the memory address (load/store issue, store-forwarding search,
   store-buffer drain) and, where the configuration makes it observable,
   the writeback magnitude (the data-dependent latency operand).  The
   divider's latency is operand-dependent in both modelled designs, and
   NutShell's unified MDU additionally records the operand as
   contention-point data on every request — but BOOM's pipelined IMUL has
   a constant latency and its issue path never touches the operand, so
   multiply magnitudes are exec-visible only under a unified MDU.  Loaded
   / stored data and ALU results are never read by the timing model —
   they flow only into the commit log, which a checkpoint restore
   re-points.  With equal instructions, [mem] presence, size and
   direction are equal by construction, so only the address matters. *)
let exec_visible_equal (cfg : Config.t) (a : Golden.effect) (b : Golden.effect) =
  (match (a.Golden.mem, b.Golden.mem) with
  | Some ma, Some mb -> Int64.equal ma.Golden.addr mb.Golden.addr
  | None, None -> true
  | Some _, None | None, Some _ -> false)
  &&
  match classify a.Golden.instr with
  | Class_div -> Int64.equal (magnitude_of a) (magnitude_of b)
  | Class_mul when cfg.Config.unified_mdu ->
      Int64.equal (magnitude_of a) (magnitude_of b)
  | Class_mul | Class_alu | Class_load | Class_store -> true

let is_access_fault = function
  | Some (Golden.Load_access_fault | Golden.Store_access_fault) -> true
  | Some _ | None -> false

let step_issue t ~cycle =
  for k = 0 to Ring.length t.rob - 1 do
    let u = Ring.get t.rob k in
    if u.state = Dispatched && operands_ready t u ~cycle then begin
      let early_fault =
        is_access_fault u.eff.Golden.fault
        && t.cfg.exception_policy = Config.Early_at_execute
        && not u.transient
      in
      match classify u.eff.Golden.instr with
      | Class_alu ->
          (match Exec_unit.try_issue_alu t.pool ~cycle ~tainted:u.tainted with
          | Some c ->
              u.state <- Issued;
              u.complete_at <- c;
              if u.transient then t.transient_issued <- t.transient_issued + 1
          | None -> ())
      | Class_mul ->
          (match
             Exec_unit.try_issue_mul t.pool ~cycle ~operand:(operand_magnitude u)
               ~tainted:u.tainted
           with
          | Some c ->
              u.state <- Issued;
              u.complete_at <- c;
              if u.transient then t.transient_issued <- t.transient_issued + 1
          | None -> ())
      | Class_div ->
          (match
             Exec_unit.try_issue_div t.pool ~cycle ~operand:(operand_magnitude u)
               ~tainted:u.tainted
           with
          | Some c ->
              u.state <- Issued;
              u.complete_at <- c;
              if u.transient then t.transient_issued <- t.transient_issued + 1
          | None -> ())
      | Class_store ->
          if Exec_unit.try_issue_mem t.pool ~cycle ~tainted:u.tainted then begin
            Cpoint.request ~tainted:u.tainted t.reg t.p_ldq_stq ~source:1
              ~data:(Int64.to_int u.eff.Golden.pc);
            u.state <- Issued;
            u.complete_at <- cycle + 1;
            if u.transient then t.transient_issued <- t.transient_issued + 1;
            if early_fault && t.pending_early_squash = None then
              t.pending_early_squash <- Some u
          end
      | Class_load ->
          if Exec_unit.try_issue_mem t.pool ~cycle ~tainted:u.tainted then begin
            Cpoint.request ~tainted:u.tainted t.reg t.p_ldq_stq ~source:0
              ~data:(Int64.to_int u.eff.Golden.pc);
            if early_fault then begin
              u.state <- Issued;
              u.complete_at <- cycle + 1;
              if u.transient then t.transient_issued <- t.transient_issued + 1;
              if t.pending_early_squash = None then
                t.pending_early_squash <- Some u
            end
            else begin
              match older_store_same_addr t u with
              | Some v ->
                  if value_ready v ~cycle then begin
                    (* Store-to-load forwarding. *)
                    u.state <- Issued;
                    u.complete_at <- cycle + 1;
                    if u.transient then
                      t.transient_issued <- t.transient_issued + 1
                  end
                  (* Hazard: stay Dispatched, mem slot wasted this cycle. *)
              | None -> (
                  let addr =
                    match u.eff.Golden.mem with
                    | Some m -> m.addr
                    | None -> 0L
                  in
                  if in_store_buffer t addr then begin
                    u.state <- Issued;
                    u.complete_at <- cycle + 1;
                    if u.transient then
                      t.transient_issued <- t.transient_issued + 1
                  end
                  else
                    match
                      Memsys.dload t.ms ~core:t.core_id ~seq:u.id ~rob:u.id
                        ~addr ~cycle ~tainted:u.tainted
                    with
                    | Memsys.Ready c ->
                        u.state <- Issued;
                        u.complete_at <- c;
                        if u.transient then
                          t.transient_issued <- t.transient_issued + 1
                    | Memsys.Waiting ->
                        u.state <- Wait_mem;
                        if u.transient then
                          t.transient_issued <- t.transient_issued + 1
                    | Memsys.Blocked _ -> ())
            end
          end
    end
  done

(* --- Squash --- *)

let squash_younger t ~than_id =
  let keep u = u.id <= than_id in
  Ring.filter_in_place keep t.rob;
  Ring.filter_in_place keep t.fb;
  Exec_unit.purge_writeback t.pool ~keep:(fun id -> id <= than_id);
  if t.blocked_on_branch > than_id then t.blocked_on_branch <- -1

let handle_fault_redirect t u ~cycle =
  Cpoint.request ~tainted:u.tainted t.reg t.p_rob_exception ~source:0
    ~data:(Int64.to_int u.eff.Golden.pc);
  Cpoint.request ~tainted:u.tainted t.reg t.p_pc_sel ~source:2
    ~data:(Int64.to_int u.eff.Golden.pc);
  squash_younger t ~than_id:u.id;
  t.fetch_source <- Arch;
  t.fetch_pos <- u.trace_pos + 1;
  t.fetch_halted <- false;
  t.fetch_stall_until <- cycle + t.cfg.mispredict_penalty

(* --- Complete / writeback --- *)

let wb_class_of u =
  match classify u.eff.Golden.instr with
  | Class_alu -> Exec_unit.Wb_alu
  | Class_mul -> Exec_unit.Wb_mul
  | Class_div -> Exec_unit.Wb_div
  | Class_load | Class_store -> Exec_unit.Wb_mem

let step_complete t ~cycle =
  for k = 0 to Ring.length t.rob - 1 do
    let u = Ring.get t.rob k in
    match u.state with
    | Issued when u.complete_at <= cycle ->
        (* Control resolves here: train the predictor, unblock fetch. *)
        (match u.eff.Golden.instr with
        | Instr.Branch _ ->
            Branch_pred.update t.bp ~pc:u.eff.Golden.pc
              ~taken:(Option.value ~default:false u.eff.Golden.taken)
              ~target:u.resolved_target
        | Instr.Jal _ | Instr.Jalr _ ->
            Branch_pred.update_jump t.bp ~pc:u.eff.Golden.pc
              ~target:u.resolved_target
        | _ -> ());
        if u.mispredicted then begin
          t.blocked_on_branch <- -1;
          t.fetch_stall_until <- max t.fetch_stall_until (cycle + 2);
          Cpoint.request ~tainted:u.tainted t.reg t.p_pc_sel ~source:1
            ~data:(Int64.to_int u.eff.Golden.pc);
          u.mispredicted <- false
        end;
        if u.dest < 0 then u.state <- Done
        else begin
          u.state <- Exec_done;
          Exec_unit.request_writeback t.pool (wb_class_of u) ~id:u.id ~cycle
            ~tainted:u.tainted
        end
    | Wait_mem -> (
        match Memsys.load_ready t.ms ~core:t.core_id ~rob:u.id with
        | Some c when c <= cycle ->
            u.complete_at <- c;
            if u.mispredicted then begin
              t.blocked_on_branch <- -1;
              t.fetch_stall_until <- max t.fetch_stall_until (cycle + 2);
              u.mispredicted <- false
            end;
            u.state <- Exec_done;
            Exec_unit.request_writeback t.pool (wb_class_of u) ~id:u.id ~cycle
              ~tainted:u.tainted
        | Some _ | None -> ())
    | Dispatched | Issued | Exec_done | Done -> ()
  done

let rec write_back t ~cycle = function
  | [] -> ()
  | id :: rest ->
      let u = rob_find t id in
      if u.state = Exec_done then begin
        u.state <- Done;
        u.complete_at <- min u.complete_at cycle
      end;
      write_back t ~cycle rest

let step_writeback t ~cycle =
  write_back t ~cycle (Exec_unit.arbitrate_writeback t.pool ~cycle)

(* --- Commit --- *)

let step_commit t ~cycle =
  let budget = ref t.cfg.commit_width in
  let stop = ref false in
  while (not !stop) && !budget > 0 do
    if Ring.is_empty t.rob then stop := true
    else begin
      let u = Ring.get t.rob 0 in
      if not (u.state = Done && u.complete_at <= cycle) then stop := true
      else begin
        assert (not u.transient);
        Ring.pop t.rob;
        let slot = t.cfg.commit_width - !budget in
        Cpoint.request ~tainted:u.tainted t.reg t.p_rob_commit ~source:slot
          ~data:(Int64.to_int u.eff.Golden.pc);
        decr budget;
        t.commit_log <-
          { c_eff = u.eff; c_cycle = cycle; c_dispatch = u.dispatch_cycle }
          :: t.commit_log;
        if u.is_store then Ring.push t.stbuf { sb_uop = u; sb_state = Drain_new };
        if u.secret_dep then begin
          t.secret_committed <- t.secret_committed + 1;
          if t.drives_window && t.secret_committed >= t.secret_total then
            Cpoint.close_window t.reg
        end;
        (* Lazy exception handling: the squash happens here. *)
        if
          is_access_fault u.eff.Golden.fault
          && t.cfg.exception_policy = Config.Lazy_at_commit
        then begin
          handle_fault_redirect t u ~cycle;
          stop := true
        end
      end
    end
  done

(* --- Store buffer drain --- *)

let step_stbuf t ~cycle =
  if not (Ring.is_empty t.stbuf) then begin
    let entry = Ring.get t.stbuf 0 in
    let u = entry.sb_uop in
    let addr = match u.eff.Golden.mem with Some m -> m.addr | None -> 0L in
    let is_sc =
      match u.eff.Golden.instr with Instr.Sc_d _ -> true | _ -> false
    in
    match entry.sb_state with
    | Drain_new -> (
        Cpoint.request ~tainted:u.tainted t.reg t.p_stq_drain ~source:0
          ~data:(Int64.to_int addr);
        match
          Memsys.dstore t.ms ~core:t.core_id ~seq:u.id ~rob:u.id ~addr ~is_sc
            ~cycle ~tainted:u.tainted
        with
        | Memsys.Ready _ -> Ring.pop t.stbuf
        | Memsys.Waiting -> entry.sb_state <- Drain_waiting
        | Memsys.Blocked _ -> ())
    | Drain_waiting -> (
        match Memsys.store_ready t.ms ~core:t.core_id ~rob:u.id with
        | Some c when c <= cycle -> Ring.pop t.stbuf
        | Some _ | None -> ())
  end

(* --- Top level --- *)

let step t ~cycle =
  t.cycles <- cycle;
  Exec_unit.new_cycle t.pool ~cycle;
  step_complete t ~cycle;
  step_writeback t ~cycle;
  step_commit t ~cycle;
  step_issue t ~cycle;
  (match t.pending_early_squash with
  | Some u ->
      t.pending_early_squash <- None;
      handle_fault_redirect t u ~cycle
  | None -> ());
  step_stbuf t ~cycle;
  step_dispatch t ~cycle;
  step_fetch t ~cycle

let fetch_done t =
  match t.fetch_source with
  | Arch -> t.fetch_halted || t.fetch_pos >= Array.length t.trace
  | Trans _ -> false

let finished t =
  fetch_done t && Ring.is_empty t.fb && Ring.is_empty t.rob
  && Ring.is_empty t.stbuf

let commits t = List.rev t.commit_log
let transient_executed t = t.transient_issued
let cycles_run t = t.cycles

(* Exclusive upper bound on the architectural trace positions fetch can
   consume during the coming cycle, evaluated at the top of the cycle
   (before any stage steps).  Used by the dual-run checkpoint logic: as
   long as every core's bound stays at or below its fork position, the
   cycle is guaranteed to behave identically under both secrets.

   Soundness of each arm:
   - [Trans]: transient fetch consumes no architectural positions, and
     leaving [Trans] happens only through [handle_fault_redirect], which
     both stalls fetch past this cycle and moves [fetch_pos] backward.
   - halted / stalled / blocked-on-branch: no stage running this cycle
     can re-enable fetch for {e this} cycle — mispredict resolution and
     fault redirects always set [fetch_stall_until > cycle].
   - otherwise fetch consumes at most [fetch_width] positions, further
     limited by fetch-buffer backpressure: dispatch (which runs before
     fetch) frees at most [decode_width] buffer slots — and clamped at the
     first position whose instruction line is {e known} not to be ready
     this cycle ([line_known_unready] below): fetch consumes positions in
     order and [step_fetch] stops at the first [line_ready] failure.

   The line clamp is exact, not just sound, for lines the core has already
   touched: [ifetch_ready_tbl] entries are written only by [Memsys.tick],
   which runs after every core's [step] within a cycle, so the table this
   query sees at the top of the cycle is the table [step_fetch] sees.
   Untouched lines are conservatively assumed ready (a first-touch
   [Memsys.ifetch] could hit). *)
let line_known_unready t line ~cycle =
  match Int_tbl.find t.lines line with
  | c when c <> refill_pending -> c > cycle
  | _ -> (
      (* Pure variant of [line_ready]'s pending path: peek at the refill
         completion without recording it. *)
      match Memsys.ifetch_ready t.ms ~core:t.core_id ~line with
      | Some c -> c > cycle
      | None -> true)
  | exception Not_found -> false

(* The first position in [[p, last)] whose line is known unready.
   Positions on the line just found not unready need no second lookup. *)
let rec first_unready_line t ~cycle ~last ~prev_line p =
  if p >= last then None
  else begin
    let line = line_of t t.trace.(p).Golden.pc in
    if line <> prev_line && line_known_unready t line ~cycle then Some p
    else first_unready_line t ~cycle ~last ~prev_line:line (p + 1)
  end

let fetch_bound t ~cycle =
  match t.fetch_source with
  | Trans _ -> t.fetch_pos
  | Arch ->
      if t.fetch_halted || cycle < t.fetch_stall_until || t.blocked_on_branch >= 0
      then t.fetch_pos
      else begin
        let fb = Ring.length t.fb in
        let headroom =
          min t.cfg.fetch_width
            (t.cfg.fetch_buffer - fb + min fb t.cfg.decode_width)
        in
        let last = min (t.fetch_pos + headroom) (Array.length t.trace) in
        first_unready_line t ~cycle ~last ~prev_line:(-1) t.fetch_pos
        |> Option.value ~default:(t.fetch_pos + headroom)
      end

(* Whether the ROB holds a uop at or past the architectural position
   [fork] whose divergent backend-read fields could be read this cycle.
   Complements [fetch_bound] in the dual-run capture test.

   A divergent {e store}'s address can be read by any younger load's
   forwarding search the moment both sit in the ROB, so its mere presence
   trips the test.  A divergent load or mul/div is read only at its {e own}
   issue ([Memsys.dload] address / latency operand), which requires its
   operands ready — so the test defers until the cycle that could happen,
   riding out the operand-dependency chain in front of it (the testcase
   template's coupling chains delay exactly this readiness).

   [could_issue] follows the operand links fixed at dispatch
   ([step_dispatch]), as [operands_ready] does: the uop could issue once
   every linked producer is possibly ready; a committed producer is
   [Done], so its value is ready.  The links stay exact because no older
   writer dispatches after the consumer, commit removes uops from the old
   end of the ROB and a squash from the young end.

   [producer_possibly_ready] predicts [value_ready] as evaluated inside
   [step_issue], which runs {e after} complete/writeback within the cycle:
   an [Issued] producer with [complete_at <= cycle] completes first (an
   [Exec_done] or [Done] producer already has [complete_at <= cycle] — the
   only transitions into those states require it); a [Wait_mem] producer
   is released exactly when [Memsys.load_ready] says so, and the ready
   table is written only by [Memsys.tick], which runs after every core's
   [step] — so the top-of-cycle query sees the table [step_complete] sees.
   Only [Dispatched] producers (which issue at the earliest this cycle,
   completing later) and [Issued] ones with [complete_at > cycle] provably
   stay unready.  Transient uops carry position -1 and never trip the
   test. *)
let producer_possibly_ready t v ~cycle =
  match v.state with
  | Exec_done | Done -> true
  | Wait_mem -> (
      match Memsys.load_ready t.ms ~core:t.core_id ~rob:v.id with
      | Some c -> c <= cycle
      | None -> false)
  | Issued -> v.complete_at <= cycle
  | Dispatched -> false

let could_issue t u ~cycle =
  producers_satisfy t producer_possibly_ready ~cycle u.producers

let rec rob_issue_reaches_from t ~fork ~cycle k =
  k < Ring.length t.rob
  && (let u = Ring.get t.rob k in
      u.trace_pos >= fork
      && (u.state <> Dispatched || u.is_store || could_issue t u ~cycle)
     || rob_issue_reaches_from t ~fork ~cycle (k + 1))

let rob_issue_reaches t ~fork ~cycle = rob_issue_reaches_from t ~fork ~cycle 0

(* Checkpoint support.  Uops are mutable, so capture copies each one
   ([{ u with state = u.state }] — the immutable [eff] is shared).  A
   copy's operand links still point at the live producers, so restore
   re-links each one to the restored ROB uop of the same id; a producer
   absent from the ROB had committed by the capture, and a committed uop
   never changes again, so its link stays.  The commit
   log's records are immutable, so its spine is shared.  [fetch_source]'s
   [Trans] payload is replaced, never mutated, so saving it by value is
   faithful. *)

type save = {
  mutable s_secret_committed : int;
  mutable s_fetch_pos : int;
  mutable s_fetch_source : fetch_source;
  mutable s_fetch_stall_until : int;
  mutable s_fetch_halted : bool;
  mutable s_blocked_on_branch : int;
  mutable s_lines : (int * int) list;
  s_fb : uop Ring.t;
  s_rob : uop Ring.t;
  s_stbuf : stbuf_entry Ring.t;
  s_taint_reg : bool array;
  mutable s_next_id : int;
  s_pool : Exec_unit.save;
  s_bp : Branch_pred.save;
  mutable s_commit_log : commit_record list;
  mutable s_transient_issued : int;
  mutable s_cycles : int;
}

let make_save () =
  {
    s_secret_committed = 0;
    s_fetch_pos = 0;
    s_fetch_source = Arch;
    s_fetch_stall_until = 0;
    s_fetch_halted = false;
    s_blocked_on_branch = -1;
    s_lines = [];
    s_fb = Ring.create dummy_uop;
    s_rob = Ring.create dummy_uop;
    s_stbuf = Ring.create dummy_entry;
    s_taint_reg = Array.make 32 false;
    s_next_id = 0;
    s_pool = Exec_unit.make_save ();
    s_bp = Branch_pred.make_save ();
    s_commit_log = [];
    s_transient_issued = 0;
    s_cycles = 0;
  }

let copy_uop u = { u with state = u.state }

(* Replace the contents of [dst] with [f] applied to each element of [src],
   in order. *)
let map_into f src dst =
  Ring.clear dst;
  Ring.iter (fun x -> Ring.push dst (f x)) src

let capture t sv =
  (* [pending_early_squash] is set and consumed within one [step], so it
     is always [None] at a cycle boundary. *)
  assert (t.pending_early_squash = None);
  sv.s_secret_committed <- t.secret_committed;
  sv.s_fetch_pos <- t.fetch_pos;
  sv.s_fetch_source <- t.fetch_source;
  sv.s_fetch_stall_until <- t.fetch_stall_until;
  sv.s_fetch_halted <- t.fetch_halted;
  sv.s_blocked_on_branch <- t.blocked_on_branch;
  sv.s_lines <- Int_tbl.fold (fun k v acc -> (k, v) :: acc) t.lines [];
  map_into copy_uop t.fb sv.s_fb;
  map_into copy_uop t.rob sv.s_rob;
  map_into
    (fun e -> { sb_uop = copy_uop e.sb_uop; sb_state = e.sb_state })
    t.stbuf sv.s_stbuf;
  Array.blit t.taint_reg 0 sv.s_taint_reg 0 32;
  sv.s_next_id <- t.next_id;
  Exec_unit.capture t.pool sv.s_pool;
  Branch_pred.capture t.bp sv.s_bp;
  sv.s_commit_log <- t.commit_log;
  sv.s_transient_issued <- t.transient_issued;
  sv.s_cycles <- t.cycles

let restore ?(fork = max_int) t sv =
  t.secret_committed <- sv.s_secret_committed;
  t.fetch_pos <- sv.s_fetch_pos;
  t.fetch_source <- sv.s_fetch_source;
  t.fetch_stall_until <- sv.s_fetch_stall_until;
  t.fetch_halted <- sv.s_fetch_halted;
  t.blocked_on_branch <- sv.s_blocked_on_branch;
  Int_tbl.reset t.lines;
  List.iter (fun (k, v) -> Int_tbl.replace t.lines k v) sv.s_lines;
  (* Uops at or past [fork] were captured with run 0's effect records.
     None of the fields the two runs disagree on was ever read — the
     capture fires before the first cycle in which issue could touch a
     uop whose {e backend-read} fields ([exec_visible_equal]) diverge,
     and uops diverging only in unread data may have issued, completed,
     even committed — so re-pointing every record at the current —
     [prepare]d — trace makes the restored state exactly what the other
     run would have built.  All dynamic uop fields (taint, prediction
     outcome, resolved target, dispatch cycle, issue timing) are
     equal across the runs up to that point, so the shallow rebuild is
     faithful. *)
  let repoint u =
    if u.trace_pos >= fork then { u with eff = t.trace.(u.trace_pos) } else u
  in
  map_into repoint sv.s_fb t.fb;
  map_into repoint sv.s_rob t.rob;
  map_into
    (fun e -> { sb_uop = repoint e.sb_uop; sb_state = e.sb_state })
    sv.s_stbuf t.stbuf;
  Ring.iter
    (fun u ->
      u.producers <-
        List.map
          (fun v ->
            let c = rob_find t v.id in
            if c == dummy_uop then v else c)
          u.producers)
    t.rob;
  Array.blit sv.s_taint_reg 0 t.taint_reg 0 32;
  t.next_id <- sv.s_next_id;
  Exec_unit.restore t.pool sv.s_pool;
  Branch_pred.restore t.bp sv.s_bp;
  (* The [k]-th commit (commit order = architectural trace order; the log
     is most-recent-first) is trace position [k] — re-point committed
     records past [fork] too, so the commit trace reports the new run's
     data. *)
  t.commit_log <-
    (if fork = max_int then sv.s_commit_log
     else begin
       let len = List.length sv.s_commit_log in
       List.mapi
         (fun j r ->
           let pos = len - 1 - j in
           if pos >= fork then { r with c_eff = t.trace.(pos) } else r)
         sv.s_commit_log
     end);
  t.transient_issued <- sv.s_transient_issued;
  t.cycles <- sv.s_cycles;
  t.pending_early_squash <- None
