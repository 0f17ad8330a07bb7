(* Bench-side spans for the traced run: name, start, end, parent and the
   minor-heap words allocated in between. Spans live in preallocated
   arrays that grow by doubling (large arrays go straight to the major
   heap), so recording a span allocates nothing on the minor heap and the
   word counts of the timed calls are not polluted by the recorder. The
   spans are written out once, when the run ends. *)

(* Monotonic nanoseconds; the noalloc external returns an unboxed int64. *)
let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

type t = {
  enabled : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable words : Float.Array.t;
  mutable current : int;
}

let create ~enabled =
  let cap = if enabled then 4096 else 0 in
  {
    enabled;
    names = Hashtbl.create 32;
    name_of = [||];
    n = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    words = Float.Array.make cap 0.;
    current = -1;
  }

(* Interned span name; intern once, outside the hot loop. *)
let name t s =
  match Hashtbl.find_opt t.names s with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.names in
      Hashtbl.add t.names s id;
      t.name_of <- Array.append t.name_of [| s |];
      id

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- ext t.name;
  t.parent <- ext t.parent;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  let w = Float.Array.make cap 0. in
  Float.Array.blit t.words 0 w 0 t.n;
  t.words <- w

(* Run [f] inside a span named [nm] (an interned id). *)
let span t nm f =
  if not t.enabled then f ()
  else begin
    if t.n = Array.length t.name then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.name.(id) <- nm;
    t.parent.(id) <- t.current;
    t.current <- id;
    let w0 = Gc.minor_words () in
    t.start.(id) <- now_ns ();
    match f () with
    | r ->
        t.stop.(id) <- now_ns ();
        Float.Array.set t.words id (Gc.minor_words () -. w0);
        t.current <- t.parent.(id);
        r
    | exception e ->
        t.stop.(id) <- now_ns ();
        Float.Array.set t.words id (Gc.minor_words () -. w0);
        t.current <- t.parent.(id);
        raise e
  end

type stat = {
  calls : int;
  total_s : float;
  self_s : float;  (** total minus the time covered by child spans *)
  self_words : float;  (** minor words, minus those of child spans *)
  durations : float array;  (** seconds, one per call, in call order *)
}

let empty_stat =
  { calls = 0; total_s = 0.; self_s = 0.; self_words = 0.; durations = [||] }

(* Per-name statistics over every span recorded so far. *)
let summarize t =
  let child_ns = Array.make t.n 0 and child_words = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (t.stop.(i) - t.start.(i));
      child_words.(p) <- child_words.(p) +. Float.Array.get t.words i
    end
  done;
  let acc = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let nm = t.name_of.(t.name.(i)) in
    let dur = t.stop.(i) - t.start.(i) in
    let calls, total, self, words, durs =
      Option.value (Hashtbl.find_opt acc nm) ~default:(0, 0, 0, 0., [])
    in
    Hashtbl.replace acc nm
      ( calls + 1,
        total + dur,
        self + dur - child_ns.(i),
        words +. Float.Array.get t.words i -. child_words.(i),
        (float_of_int dur *. 1e-9) :: durs )
  done;
  let stats = Hashtbl.create 32 in
  Hashtbl.iter
    (fun nm (calls, total, self, self_words, durs) ->
      Hashtbl.replace stats nm
        {
          calls;
          total_s = float_of_int total *. 1e-9;
          self_s = float_of_int self *. 1e-9;
          self_words;
          durations = Array.of_list (List.rev durs);
        })
    acc;
  stats

let stat stats nm = Option.value (Hashtbl.find_opt stats nm) ~default:empty_stat

(* Self time and minor words per span name, largest self time first. *)
let print_self_times stats =
  Printf.printf "%-32s %9s %12s %14s\n" "span" "calls" "self_s" "words/call";
  Hashtbl.fold (fun nm s acc -> (nm, s) :: acc) stats []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b.self_s a.self_s)
  |> List.iter (fun (nm, s) ->
         Printf.printf "%-32s %9d %12.4f %14.0f\n" nm s.calls s.self_s
           (s.self_words /. float_of_int s.calls))

(* One JSON object per span, in begin order, times relative to the first. *)
let write t path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.start.(0) else 0 in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%s,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"minor_words\":%.0f}\n"
      i
      (if t.parent.(i) < 0 then "null" else string_of_int t.parent.(i))
      t.name_of.(t.name.(i))
      (t.start.(i) - t0)
      (t.stop.(i) - t0)
      (Float.Array.get t.words i)
  done;
  close_out oc
