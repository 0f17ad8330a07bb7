(* Tests for the HTTP observability server: the Prometheus text
   exposition renderer, the three standard routes, and the socket
   lifecycle (real loopback requests against an ephemeral port). *)

open Sonar

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- fixtures --- *)

let metrics_fixture =
  {
    Telemetry.Metrics.events = 100;
    generations = 4;
    testcases = 50;
    contention_testcases = 7;
    ccd_findings = 3;
    finding_testcases = 2;
    retained = 5;
    evicted = 1;
    direction_flips = 2;
    coverage = 12.5;
    corpus_size = 5;
    generate_seconds = 0.5;
    execute_seconds = 1.5;
    feedback_seconds = 0.25;
    wall_seconds = 3.;
    events_per_second = 33.25;
    testcases_per_second = 16.5;
    pool_utilization = 0.5;
    cycles_simulated = 1000;
    cycles_saved = 200;
    checkpoint_hits = 9;
  }

let observatory_fixture events =
  let sink, snap = Telemetry.observatory () in
  List.iter sink.Telemetry.emit events;
  snap ()

let hist ~point ~src_pair ~total ~min_interval ~max_interval buckets =
  Telemetry.Interval_histogram
    { generation = 1; point; src_pair; total; min_interval; max_interval;
      buckets }

(* --- Prometheus exposition --- *)

let test_prometheus_counters () =
  let text = Serve.prometheus metrics_fixture (observatory_fixture []) in
  List.iter
    (fun needle -> checkb (needle ^ " present") true (contains ~needle text))
    [
      "# TYPE sonar_testcases_total counter\nsonar_testcases_total 50\n";
      "sonar_generations_total 4\n";
      "sonar_contention_testcases_total 7\n";
      "sonar_ccd_findings_total 3\n";
      "sonar_cycles_simulated_total 1000\n";
      "sonar_cycles_saved_total 200\n";
      "sonar_checkpoint_hits_total 9\n";
      "# TYPE sonar_coverage gauge\nsonar_coverage 12.5\n";
      "sonar_corpus_size 5\n";
      "sonar_phase_seconds_total{phase=\"generate\"} 0.5\n";
      "sonar_phase_seconds_total{phase=\"execute\"} 1.5\n";
      "sonar_phase_seconds_total{phase=\"feedback\"} 0.25\n";
    ];
  (* an empty observatory still renders a complete (empty) histogram *)
  checkb "+Inf bucket always present" true
    (contains ~needle:"sonar_interval_cycles_bucket{le=\"+Inf\"} 0\n" text);
  checkb "count always present" true
    (contains ~needle:"sonar_interval_cycles_count 0\n" text)

let test_prometheus_histogram () =
  (* buckets 1 (range 1..1, n=2) and 3 (range 4..7, n=4): the le series
     must be cumulative with power-of-two upper bounds *)
  let o =
    observatory_fixture
      [
        hist ~point:"p" ~src_pair:0 ~total:6 ~min_interval:1 ~max_interval:6
          [ (1, 2); (3, 4) ];
      ]
  in
  let text = Serve.prometheus metrics_fixture o in
  checkb "first bucket boundary" true
    (contains ~needle:"sonar_interval_cycles_bucket{le=\"1\"} 2\n" text);
  checkb "cumulative second bucket" true
    (contains ~needle:"sonar_interval_cycles_bucket{le=\"7\"} 6\n" text);
  checkb "+Inf equals the total" true
    (contains ~needle:"sonar_interval_cycles_bucket{le=\"+Inf\"} 6\n" text);
  checkb "count equals the total" true
    (contains ~needle:"sonar_interval_cycles_count 6\n" text);
  checkb "min-interval gauge per point" true
    (contains
       ~needle:"sonar_point_min_interval_cycles{point=\"p\",pair=\"0\"} 1\n"
       text);
  checkb "histogram family declared once" true
    (contains ~needle:"# TYPE sonar_interval_cycles histogram\n" text)

let test_prometheus_escaping () =
  let o =
    observatory_fixture
      [
        hist ~point:"a\"b\\c\nd" ~src_pair:1 ~total:1 ~min_interval:3
          ~max_interval:3 [ (2, 1) ];
      ]
  in
  let text = Serve.prometheus metrics_fixture o in
  checkb "label value escaped" true
    (contains
       ~needle:
         "sonar_point_min_interval_cycles{point=\"a\\\"b\\\\c\\nd\",pair=\"1\"} 3\n"
       text)

(* --- routes --- *)

let handler_fixture () =
  Serve.routes
    ~healthz:(fun () -> Json.Obj [ ("status", Json.String "running") ])
    ~snapshot:(fun () -> Json.Obj [ ("metrics", Json.Obj []) ])
    ~metrics:(fun () -> "sonar_testcases_total 50\n")

let test_routes () =
  let h = handler_fixture () in
  (match h "/healthz" with
  | Some r ->
      checki "healthz is 200" 200 r.Serve.status;
      checks "healthz is json" "application/json" r.content_type;
      checkb "healthz body parses" true
        (Json.of_string r.body <> Json.Null)
  | None -> Alcotest.fail "/healthz must resolve");
  (match h "/metrics" with
  | Some r ->
      checkb "prometheus content type" true
        (contains ~needle:"text/plain" r.Serve.content_type)
  | None -> Alcotest.fail "/metrics must resolve");
  checkb "snapshot resolves" true (h "/snapshot" <> None);
  checkb "unknown path is None" true (h "/other" = None)

(* --- socket lifecycle, real loopback requests --- *)

let http_request ?(meth = "GET") ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
          meth path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec loop () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            loop ()
      in
      loop ();
      Buffer.contents buf)

let status_of response = int_of_string (String.sub response 9 3)

let body_of response =
  let rec find i =
    if i + 3 >= String.length response then String.length response
    else if String.sub response i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let i = find 0 in
  String.sub response i (String.length response - i)

let test_server_lifecycle () =
  let server = Serve.start ~port:0 (handler_fixture ()) in
  Fun.protect ~finally:(fun () -> Serve.stop server) @@ fun () ->
  let port = Serve.port server in
  checkb "ephemeral port assigned" true (port > 0);
  let health = http_request ~port "/healthz" in
  checki "healthz 200" 200 (status_of health);
  checks "healthz body" "running"
    Json.(to_str (member "status" (of_string (body_of health))));
  let metrics = http_request ~port "/metrics" in
  checki "metrics 200" 200 (status_of metrics);
  checkb "metrics body" true
    (contains ~needle:"sonar_testcases_total 50" (body_of metrics));
  checkb "query string stripped" true
    (status_of (http_request ~port "/snapshot?pretty=1") = 200);
  checki "unknown path 404" 404 (status_of (http_request ~port "/nope"));
  checki "non-GET 405" 405 (status_of (http_request ~meth:"POST" ~port "/healthz"))

let test_server_stop () =
  let server = Serve.start ~port:0 (handler_fixture ()) in
  let port = Serve.port server in
  checki "alive before stop" 200 (status_of (http_request ~port "/healthz"));
  Serve.stop server;
  Serve.stop server;
  (* idempotent *)
  checkb "connection refused after stop" true
    (match http_request ~port "/healthz" with
    | exception Unix.Unix_error _ -> true
    | _ -> false)

(* A scraper that resets the connection mid-response must not take down
   the process. The client half-closes after its request (the server's
   socket enters CLOSE_WAIT), then resets while the server is still
   writing a multi-MiB body: the server's next write fails with EPIPE,
   which raises SIGPIPE — fatal by default, so the follow-up request would
   never run. *)
let test_client_reset_mid_response () =
  let big = String.make (8 * 1024 * 1024) 'x' in
  let responding = Atomic.make false in
  let handler path =
    if path = "/big" then begin
      Atomic.set responding true;
      Some (Serve.ok_text big)
    end
    else handler_fixture () path
  in
  let server = Serve.start ~port:0 handler in
  Fun.protect ~finally:(fun () -> Serve.stop server) @@ fun () ->
  let port = Serve.port server in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* a small receive window keeps the server blocked mid-body *)
  Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = "GET /big HTTP/1.1\r\nHost: test\r\n\r\n" in
  ignore (Unix.write_substring fd req 0 (String.length req));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  while not (Atomic.get responding) do
    Unix.sleepf 0.001
  done;
  Unix.sleepf 0.05;
  Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
  Unix.close fd;
  checki "healthz still answers after a reset" 200
    (status_of (http_request ~port "/healthz"))

let () =
  Alcotest.run "sonar_serve"
    [
      ( "prometheus",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_prometheus_counters;
          Alcotest.test_case "interval histogram" `Quick
            test_prometheus_histogram;
          Alcotest.test_case "label escaping" `Quick test_prometheus_escaping;
        ] );
      ( "server",
        [
          Alcotest.test_case "routes" `Quick test_routes;
          Alcotest.test_case "lifecycle over loopback" `Quick
            test_server_lifecycle;
          Alcotest.test_case "stop" `Quick test_server_stop;
          Alcotest.test_case "client reset mid-response" `Quick
            test_client_reset_mid_response;
        ] );
    ]
