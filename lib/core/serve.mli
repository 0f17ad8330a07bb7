(** Live campaign observability over HTTP.

    A minimal HTTP/1.1 server (plain [Unix] sockets, no dependencies)
    run from its own domain so a running campaign can be scraped without
    touching the fuzzing loop. The intended wiring — what
    [sonar fuzz --serve PORT] does — is an {!Telemetry.aggregator} and
    {!Telemetry.observatory} wrapped in {!Telemetry.synchronized} on a
    shared mutex; the handler snapshots them under the same mutex, so
    scrapes see a consistent view.

    Endpoints built by {!routes}:
    - [GET /healthz] — liveness plus campaign state (small JSON doc);
    - [GET /snapshot] — the full {!Telemetry.Metrics.snapshot} and
      {!Telemetry.Observatory.snapshot} as one JSON document;
    - [GET /metrics] — Prometheus text exposition format ({!prometheus}).

    The server answers one request per connection ([Connection: close]),
    GET only; anything else gets 405. Requests are served sequentially —
    scraping traffic, not a web service. *)

type response = { status : int; content_type : string; body : string }

type handler = string -> response option
(** Maps a request path (query string already stripped) to a response;
    [None] means 404. *)

val ok_json : Json.t -> response
(** 200 with [application/json]. *)

val ok_text : string -> response
(** 200 with the Prometheus text exposition content type. *)

type t

val start : ?host:string -> port:int -> handler -> t
(** Bind [host] (default ["127.0.0.1"]) : [port] (0 picks a free port —
    read it back with {!port}) and serve from a freshly spawned domain.
    Sets SIGPIPE to ignored for the whole process, so a client resetting
    mid-response cannot kill it. Raises [Unix.Unix_error] if the bind
    fails. *)

val port : t -> int
(** The actually-bound port. *)

val stop : t -> unit
(** Stop accepting, join the server domain, close the socket.
    Idempotent. *)

val routes :
  healthz:(unit -> Json.t) ->
  snapshot:(unit -> Json.t) ->
  metrics:(unit -> string) ->
  handler
(** The standard three-endpoint handler described above. *)

val prometheus :
  Telemetry.Metrics.snapshot -> Telemetry.Observatory.snapshot -> string
(** Render both snapshots in the Prometheus text exposition format:
    campaign counters ([sonar_testcases_total], [sonar_ccd_findings_total],
    [sonar_cycles_saved_total], …), gauges ([sonar_coverage],
    [sonar_corpus_size], …), per-phase [sonar_phase_seconds_total{phase=…}],
    one [sonar_point_min_interval_cycles{point=…,pair=…}] gauge per
    observatory point, and the merged interval distribution as a native
    histogram [sonar_interval_cycles] whose [le] boundaries are the
    power-of-two bucket upper bounds of {!Histogram.bucket_range}. *)
