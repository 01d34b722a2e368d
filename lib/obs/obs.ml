type t = {
  metrics : Metrics.t;
  recorder : Recorder.t option;
  tracer : Tracer.t option;
  timeseries : Timeseries.t option;
  topk : Topk.t option;
  health : Health.t option;
  clock : unit -> float;
  on_window_extra : (Timeseries.t -> Timeseries.window -> unit) option ref;
}

(* CLOCK_MONOTONIC in nanoseconds: a wall clock that never steps back. *)
let default_clock () = Int64.to_float (Monotonic_clock.now ())

let create ?(recorder = true) ?(tracer = false) ?tracer_capacity ?(telemetry = false) ?slo
    ?(clock = default_clock) () =
  let metrics = Metrics.create () in
  let recorder = if recorder then Some (Recorder.create ()) else None in
  let topk = if telemetry then Some (Topk.create ()) else None in
  let tk_orphans = Option.map (fun tk -> Topk.sketch tk "flow.orphans") topk in
  let tracer =
    if tracer then
      Some (Tracer.create ?capacity:tracer_capacity ~metrics ?recorder ?tk_orphans ~clock ())
    else None
  in
  let timeseries = if telemetry then Some (Timeseries.create ~metrics ()) else None in
  let health = if telemetry then Some (Health.create ?config:slo ?recorder ()) else None in
  let on_window_extra = ref None in
  (match timeseries with
  | Some ts ->
    (* One physical hook on the sampler: health first (so alert events
       carry this window's burn rates), then whatever live view the
       caller registered via [set_window_hook]. *)
    Timeseries.set_on_close ts (fun ts w ->
        (match health with Some h -> Health.on_window h w | None -> ());
        match !on_window_extra with Some f -> f ts w | None -> ())
  | None -> ());
  { metrics; recorder; tracer; timeseries; topk; health; clock; on_window_extra }

let set_window_hook t f = t.on_window_extra := Some f

let record t ~at event =
  match t.recorder with
  | Some r -> Recorder.record r ~at event
  | None -> ()

let recorder_exn t =
  match t.recorder with
  | Some r -> r
  | None -> invalid_arg "Obs.recorder_exn: bundle has no recorder"

let tracer_exn t =
  match t.tracer with
  | Some tr -> tr
  | None -> invalid_arg "Obs.tracer_exn: bundle has no tracer"

let counter obs ?unit_ name =
  match obs with
  | Some t -> Metrics.counter t.metrics ?unit_ name
  | None -> Metrics.private_counter ?unit_ name

let flow_sketch t name =
  match t.topk with None -> None | Some tk -> Some (Topk.sketch tk name)
