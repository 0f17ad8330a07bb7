(* Minimal HTTP/1.1 observability server on raw Unix sockets. One
   request per connection, GET only, served sequentially from a
   dedicated domain — sized for Prometheus scrapes and curl, nothing
   more. *)

type response = { status : int; content_type : string; body : string }
type handler = string -> response option

let ok_json doc =
  { status = 200; content_type = "application/json"; body = Json.to_string doc }

let ok_text body =
  { status = 200; content_type = "text/plain; version=0.0.4"; body }

let status_text = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 400 -> "Bad Request"
  | _ -> "Internal Server Error"

(* ------------------------------------------------------------------ *)
(* Request/response plumbing.                                          *)

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd s !pos (len - !pos)
  done

let send fd r =
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
        Connection: close\r\n\r\n%s"
       r.status (status_text r.status) r.content_type
       (String.length r.body) r.body)

(* Read until the end of the request head; we never accept bodies, so
   this is all we need. Bounded so a garbage client can't grow the
   buffer without limit. *)
let read_head fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let rec loop () =
    if Buffer.length buf > 8192 then None
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> None
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          let s = Buffer.contents buf in
          let rec has_end i =
            i + 3 < String.length s
            && (String.sub s i 4 = "\r\n\r\n" || has_end (i + 1))
          in
          if has_end 0 then Some s else loop ()
  in
  try loop () with Unix.Unix_error _ -> None

let handle handler fd =
  (* a wedged client must not stall the accept loop forever *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0 with _ -> ());
  (match read_head fd with
  | None -> ()
  | Some head -> (
      let request_line =
        match String.index_opt head '\r' with
        | Some i -> String.sub head 0 i
        | None -> head
      in
      match String.split_on_char ' ' request_line with
      | [ "GET"; target; _version ] -> (
          let path =
            match String.index_opt target '?' with
            | Some i -> String.sub target 0 i
            | None -> target
          in
          match handler path with
          | Some r -> send fd r
          | None ->
              send fd
                { status = 404; content_type = "text/plain";
                  body = "not found\n" })
      | _ :: _ :: _ ->
          send fd
            { status = 405; content_type = "text/plain";
              body = "method not allowed\n" }
      | _ ->
          send fd
            { status = 400; content_type = "text/plain";
              body = "bad request\n" }));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Server lifecycle.                                                   *)

type t = {
  sock : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;
  domain : unit Domain.t;
  stopped : bool Atomic.t;
}

let serve_loop stopping sock handler =
  while not (Atomic.get stopping) do
    (* poll rather than block in accept: closing a socket another domain
       is blocked in does not reliably wake it up *)
    match Unix.select [ sock ] [] [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> Atomic.set stopping true
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept sock with
        | exception Unix.Unix_error _ -> ()
        | client, _ -> ( try handle handler client with _ -> (
            try Unix.close client with _ -> ())))
  done

let start ?(host = "127.0.0.1") ~port handler =
  (* A client that resets mid-response makes the next write fail with
     EPIPE; the default SIGPIPE action would kill the whole process (and
     the campaign being observed) before [serve_loop] sees the error. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stopping = Atomic.make false in
  let domain = Domain.spawn (fun () -> serve_loop stopping sock handler) in
  { sock; bound_port; stopping; domain; stopped = Atomic.make false }

let port t = t.bound_port

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.stopping true;
    Domain.join t.domain;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Standard routes.                                                    *)

let routes ~healthz ~snapshot ~metrics path =
  match path with
  | "/healthz" -> Some (ok_json (healthz ()))
  | "/snapshot" -> Some (ok_json (snapshot ()))
  | "/metrics" -> Some (ok_text (metrics ()))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition.                                         *)

let fmt_float = Printf.sprintf "%.12g"

let escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prometheus (m : Telemetry.Metrics.snapshot)
    (o : Telemetry.Observatory.snapshot) =
  let buf = Buffer.create 2048 in
  let family name kind help =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  let int_metric name v =
    Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
  in
  let float_metric name v =
    Buffer.add_string buf (Printf.sprintf "%s %s\n" name (fmt_float v))
  in
  let counter name help v =
    family name "counter" help;
    int_metric name v
  in
  let gauge name help v =
    family name "gauge" help;
    float_metric name v
  in
  counter "sonar_events_total" "Telemetry events seen" m.events;
  counter "sonar_generations_total" "Fuzzing generations completed"
    m.generations;
  counter "sonar_testcases_total" "Testcases executed" m.testcases;
  counter "sonar_contention_testcases_total"
    "Testcases that triggered new contention" m.contention_testcases;
  counter "sonar_ccd_findings_total"
    "Secret-reflecting timing differences found" m.ccd_findings;
  counter "sonar_finding_testcases_total"
    "Testcases with at least one CCD finding" m.finding_testcases;
  counter "sonar_corpus_retained_total" "Testcases retained in the corpus"
    m.retained;
  counter "sonar_corpus_evicted_total" "Testcases evicted from the corpus"
    m.evicted;
  counter "sonar_direction_flips_total" "Mutation direction flips"
    m.direction_flips;
  counter "sonar_cycles_simulated_total"
    "Cycles actually simulated (after checkpoint reuse)" m.cycles_simulated;
  counter "sonar_cycles_saved_total"
    "Cycles skipped via prefix checkpointing" m.cycles_saved;
  counter "sonar_checkpoint_hits_total"
    "Dual runs resumed from a prefix checkpoint" m.checkpoint_hits;
  gauge "sonar_coverage" "Cumulative contention coverage" m.coverage;
  gauge "sonar_corpus_size" "Current corpus size"
    (float_of_int m.corpus_size);
  gauge "sonar_testcases_per_second" "Campaign throughput"
    m.testcases_per_second;
  gauge "sonar_pool_utilization"
    "Share of wall-clock spent in the execute phase" m.pool_utilization;
  family "sonar_wall_seconds" "gauge" "Campaign wall-clock so far";
  float_metric "sonar_wall_seconds" m.wall_seconds;
  family "sonar_phase_seconds_total" "counter"
    "Wall-clock per campaign phase";
  List.iter
    (fun (phase, v) ->
      float_metric
        (Printf.sprintf "sonar_phase_seconds_total{phase=\"%s\"}"
           (escape_label phase))
        v)
    [
      ("generate", m.generate_seconds);
      ("execute", m.execute_seconds);
      ("feedback", m.feedback_seconds);
    ];
  if o.points <> [] then begin
    family "sonar_point_min_interval_cycles" "gauge"
      "Minimum observed contention interval per (point, source pair)";
    List.iter
      (fun (p : Telemetry.Observatory.point_hist) ->
        match Telemetry.Histogram.min_value p.hist with
        | None -> ()
        | Some v ->
            int_metric
              (Printf.sprintf
                 "sonar_point_min_interval_cycles{point=\"%s\",pair=\"%d\"}"
                 (escape_label p.point) p.src_pair)
              v)
      o.points
  end;
  (* All points merged into one distribution: the per-bucket counts are
     already cumulative campaign state, so they render directly as a
     native histogram. le boundaries are the power-of-two bucket upper
     bounds; _sum is the bucket-midpoint estimate (exact values are not
     retained). *)
  let merged =
    List.fold_left
      (fun acc (p : Telemetry.Observatory.point_hist) ->
        Telemetry.Histogram.merge acc p.hist)
      (Telemetry.Histogram.create ())
      o.points
  in
  let counts = Telemetry.Histogram.counts merged in
  let total = Telemetry.Histogram.total merged in
  family "sonar_interval_cycles" "histogram"
    "Contention interval distribution across all points";
  let cum = ref 0 in
  let sum = ref 0. in
  List.iter
    (fun (bucket, n) ->
      let lo, hi = Telemetry.Histogram.bucket_range bucket in
      cum := !cum + n;
      sum := !sum +. (float_of_int n *. (float_of_int (lo + hi) /. 2.));
      int_metric
        (Printf.sprintf "sonar_interval_cycles_bucket{le=\"%d\"}" hi)
        !cum)
    counts;
  int_metric "sonar_interval_cycles_bucket{le=\"+Inf\"}" total;
  float_metric "sonar_interval_cycles_sum" !sum;
  int_metric "sonar_interval_cycles_count" total;
  Buffer.contents buf
