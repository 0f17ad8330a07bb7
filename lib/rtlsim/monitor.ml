type point_state = {
  point_id : string;
  mutable min_pair_interval : int option;
  mutable min_self_interval : int option;
  mutable triggered : bool;
  mutable request_hits : int;
}

type tracked = {
  state : point_state;
  valid_slots : int array;  (** engine slots of the valid outputs *)
  fired : bool array;  (** per-sample scratch, reused *)
  last_valid : int array;  (** -1 = never *)
}

type t = {
  engine : Engine.t;
  tracked : tracked array;
  mutable window : (int * int) option;
}

let create engine monitors =
  let tracked =
    List.map
      (fun (pm : Sonar_ir.Instrument.point_monitor) ->
        (* Resolve output names to slots once; sampling then reads the
           engine's store directly. *)
        let valid_slots =
          Array.of_list (List.map (Engine.slot engine) pm.valid_outputs)
        in
        {
          state =
            {
              point_id = pm.point_id;
              min_pair_interval = None;
              min_self_interval = None;
              triggered = false;
              request_hits = 0;
            };
          valid_slots;
          fired = Array.make (Array.length valid_slots) false;
          last_valid = Array.make (Array.length valid_slots) (-1);
        })
      monitors
    |> Array.of_list
  in
  { engine; tracked; window = None }

let set_window t ~start ~stop = t.window <- Some (start, stop)
let clear_window t = t.window <- None

let update_min current candidate =
  match current with Some m when m <= candidate -> current | _ -> Some candidate

let sample t =
  let cycle = Engine.cycle t.engine in
  let in_window =
    match t.window with
    | None -> true
    | Some (start, stop) -> cycle >= start && cycle <= stop
  in
  Array.iter
    (fun tr ->
      let n = Array.length tr.valid_slots in
      let fired = tr.fired in
      for i = 0 to n - 1 do
        fired.(i) <- Engine.read_slot t.engine tr.valid_slots.(i) <> 0
      done;
      if in_window then begin
        for i = 0 to n - 1 do
          if fired.(i) then begin
            tr.state.request_hits <- tr.state.request_hits + 1;
            (* Same-source consecutive interval. *)
            if tr.last_valid.(i) >= 0 then
              tr.state.min_self_interval <-
                update_min tr.state.min_self_interval (cycle - tr.last_valid.(i));
            (* Pairwise interval against every other source's last firing
               (including simultaneous firings this cycle). *)
            for j = 0 to n - 1 do
              if j <> i then begin
                let last_j = if fired.(j) then cycle else tr.last_valid.(j) in
                if last_j >= 0 then begin
                  let interval = cycle - last_j in
                  tr.state.min_pair_interval <-
                    update_min tr.state.min_pair_interval interval;
                  if interval = 0 then tr.state.triggered <- true
                end
              end
            done
          end
        done
      end;
      (* Last-valid bookkeeping runs regardless of the window so intervals
         across the window edge are measured correctly. *)
      for i = 0 to n - 1 do
        if fired.(i) then tr.last_valid.(i) <- cycle
      done)
    t.tracked

let states t = Array.to_list (Array.map (fun tr -> tr.state) t.tracked)

let find t id =
  List.find_opt (fun (s : point_state) -> String.equal s.point_id id) (states t)
