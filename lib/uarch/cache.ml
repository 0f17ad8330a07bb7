type fill_info = { filler_seq : int; fill_cycle : int; filler_tainted : bool }

type line = {
  mutable tag : int;
  mutable valid : bool;
  mutable dirty : bool;
  mutable lru : int;
  mutable info : fill_info;
}

type victim = { victim_addr : int64; was_dirty : bool }

type t = {
  sets : line array array;
  line_bytes : int;
  n_sets : int;
  ways : int;
  index_bits : int;
  offset_bits : int;
  mutable tick : int;
  (* Evicted lines, keyed by [evict_key], with the evicting fill's seq and
     taint (S12). *)
  evicted : (int * bool) Int_tbl.t;
  (* Sets [fill] has touched since [reset], as a stack ([touched], first
     [n_touched] entries) plus a per-set membership flag.  Every valid
     line lies in a touched set, so [reset], [capture] and [restore] walk
     only these — their cost follows what a run uses, not the cache size. *)
  touched : int array;
  mutable n_touched : int;
  is_touched : bool array;
}

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
  go 0 n

let line_shift (cfg : Config.cache_cfg) = log2 cfg.line_bytes

let create (cfg : Config.cache_cfg) =
  let total = cfg.size_kb * 1024 in
  let n_sets = max 1 (total / (cfg.ways * cfg.line_bytes)) in
  {
    sets =
      Array.init n_sets (fun _ ->
          Array.init cfg.ways (fun _ ->
              {
                tag = 0;
                valid = false;
                dirty = false;
                lru = 0;
                info = { filler_seq = -1; fill_cycle = -1; filler_tainted = false };
              }));
    line_bytes = cfg.line_bytes;
    n_sets;
    ways = cfg.ways;
    index_bits = log2 n_sets;
    offset_bits = line_shift cfg;
    tick = 0;
    evicted = Int_tbl.create 64;
    touched = Array.make n_sets 0;
    n_touched = 0;
    is_touched = Array.make n_sets false;
  }

let n_sets t = t.n_sets

let set_index t addr =
  Int64.to_int
    (Int64.logand
       (Int64.shift_right_logical addr t.offset_bits)
       (Int64.of_int (t.n_sets - 1)))

(* Tags and line numbers as native ints: a 64-bit address shifted right
   by [offset_bits] (6 for 64-byte lines) fits in 58 bits, so the
   conversion is exact. *)
let tag_of t addr =
  Int64.to_int (Int64.shift_right_logical addr (t.offset_bits + t.index_bits))

let line_no t addr = Int64.to_int (Int64.shift_right_logical addr t.offset_bits)

(* One int per (set, tag) pair. *)
let evict_key t set_idx tag = (tag * t.n_sets) + set_idx

let line_addr t addr =
  Int64.logand addr (Int64.lognot (Int64.of_int (t.line_bytes - 1)))

let find_line t addr =
  let set = t.sets.(set_index t addr) in
  let tag = tag_of t addr in
  let rec go i =
    if i >= t.ways then None
    else if set.(i).valid && set.(i).tag = tag then Some set.(i)
    else go (i + 1)
  in
  go 0

let probe t addr = Option.is_some (find_line t addr)

let lookup t addr =
  match find_line t addr with
  | Some line ->
      t.tick <- t.tick + 1;
      line.lru <- t.tick;
      Some line.info
  | None -> None

let reconstruct_addr t set_idx tag =
  Int64.logor
    (Int64.shift_left (Int64.of_int tag) (t.offset_bits + t.index_bits))
    (Int64.shift_left (Int64.of_int set_idx) t.offset_bits)

let touch t set_idx =
  if not t.is_touched.(set_idx) then begin
    t.is_touched.(set_idx) <- true;
    t.touched.(t.n_touched) <- set_idx;
    t.n_touched <- t.n_touched + 1
  end

(* Invalidate every touched set and forget them all. *)
let clear_touched t =
  for i = 0 to t.n_touched - 1 do
    let set_idx = t.touched.(i) in
    t.is_touched.(set_idx) <- false;
    Array.iter
      (fun l ->
        l.valid <- false;
        l.dirty <- false)
      t.sets.(set_idx)
  done;
  t.n_touched <- 0

let fill t addr ~seq ~cycle ~tainted =
  let set_idx = set_index t addr in
  let set = t.sets.(set_idx) in
  touch t set_idx;
  let tag = tag_of t addr in
  (* Reuse an existing line for the same tag, else the LRU way. *)
  let line =
    match find_line t addr with
    | Some l -> l
    | None ->
        let victim = ref set.(0) in
        Array.iter
          (fun l ->
            if not l.valid then victim := l
            else if !victim.valid && l.lru < !victim.lru then victim := l)
          set;
        !victim
  in
  let evicted =
    if line.valid && line.tag <> tag then begin
      Int_tbl.replace t.evicted (evict_key t set_idx line.tag) (seq, tainted);
      Some
        { victim_addr = reconstruct_addr t set_idx line.tag; was_dirty = line.dirty }
    end
    else None
  in
  t.tick <- t.tick + 1;
  line.tag <- tag;
  line.valid <- true;
  line.dirty <- false;
  line.lru <- t.tick;
  line.info <- { filler_seq = seq; fill_cycle = cycle; filler_tainted = tainted };
  evicted

let mark_dirty t addr =
  match find_line t addr with
  | Some line ->
      line.dirty <- true;
      true
  | None -> false

let is_dirty t addr =
  match find_line t addr with Some line -> line.dirty | None -> false

let recently_evicted t addr =
  Int_tbl.find_opt t.evicted (evict_key t (set_index t addr) (tag_of t addr))

let reset t =
  (* Restores the cold-start state exactly: stale [tag]/[lru]/[info] on
     invalidated lines are never read before being overwritten by [fill]
     (victim selection among invalid ways ignores them), but [tick] feeds
     every line's LRU stamp, so it must rewind for reuse to be
     bit-identical to a fresh cache.  Untouched sets hold no valid line. *)
  clear_touched t;
  t.tick <- 0;
  Int_tbl.reset t.evicted

(* Checkpoint support: capture the full observable cache state (valid
   lines only — invalid lines carry no readable state, see [reset]) into
   preallocated arrays, and restore it later.  Restore first invalidates
   every touched set, then reinstalls each saved line in place (touching
   its set again), so any line filled between capture and restore
   disappears and the LRU clock rewinds — restored state is bit-identical
   to the captured one.  Both walk only touched sets. *)

type save = {
  mutable n_saved : int;
  s_set : int array;
  s_way : int array;
  s_tag : int array;
  s_dirty : bool array;
  s_lru : int array;
  s_info : fill_info array;
  mutable s_tick : int;
  mutable s_evicted : (int * (int * bool)) list;
}

let make_save t =
  let n = t.n_sets * t.ways in
  {
    n_saved = 0;
    s_set = Array.make n 0;
    s_way = Array.make n 0;
    s_tag = Array.make n 0;
    s_dirty = Array.make n false;
    s_lru = Array.make n 0;
    s_info =
      Array.make n { filler_seq = -1; fill_cycle = -1; filler_tainted = false };
    s_tick = 0;
    s_evicted = [];
  }

let capture t sv =
  let k = ref 0 in
  for i = 0 to t.n_touched - 1 do
    let set_idx = t.touched.(i) in
    let set = t.sets.(set_idx) in
    for way = 0 to t.ways - 1 do
      let l = set.(way) in
      if l.valid then begin
        sv.s_set.(!k) <- set_idx;
        sv.s_way.(!k) <- way;
        sv.s_tag.(!k) <- l.tag;
        sv.s_dirty.(!k) <- l.dirty;
        sv.s_lru.(!k) <- l.lru;
        sv.s_info.(!k) <- l.info;
        incr k
      end
    done
  done;
  sv.n_saved <- !k;
  sv.s_tick <- t.tick;
  sv.s_evicted <- Int_tbl.fold (fun k v acc -> (k, v) :: acc) t.evicted []

let restore t sv =
  clear_touched t;
  for i = 0 to sv.n_saved - 1 do
    touch t sv.s_set.(i);
    let l = t.sets.(sv.s_set.(i)).(sv.s_way.(i)) in
    l.tag <- sv.s_tag.(i);
    l.valid <- true;
    l.dirty <- sv.s_dirty.(i);
    l.lru <- sv.s_lru.(i);
    l.info <- sv.s_info.(i)
  done;
  t.tick <- sv.s_tick;
  Int_tbl.reset t.evicted;
  List.iter (fun (k, v) -> Int_tbl.replace t.evicted k v) sv.s_evicted
