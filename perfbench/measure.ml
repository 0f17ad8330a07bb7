(* Small statistics and timing helpers shared by the workloads. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(min (n - 1) (int_of_float (p *. float_of_int n)))

let ratio a b = if b = 0. then 0. else a /. b

(* Run [f] repeatedly until [seconds] have elapsed, at least five times;
   the last result and the median duration. A short set-up is repeated
   this long so that the host's second-scale speed swings average out. *)
let repeat_for ~seconds f =
  let t0 = Trace.now_ns () in
  let rec go n times =
    let t = Trace.now_ns () in
    let r = f () in
    let times = Trace.seconds_since t :: times in
    if n >= 5 && Trace.seconds_since t0 >= seconds then (r, median times)
    else go (n + 1) times
  in
  go 1 []

(* [f 0], [f 1], ... until [seconds] have elapsed (at least one call). *)
let passes ~seconds f =
  let t0 = Trace.now_ns () in
  let rec go k acc =
    if k > 0 && Trace.seconds_since t0 >= seconds then List.rev acc
    else go (k + 1) (f k :: acc)
  in
  go 0 []

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:0.
