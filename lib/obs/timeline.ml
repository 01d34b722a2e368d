(* The ccp-timeline/v1 document: windowed time-series plus the optional
   heavy-hitter and health sections, composed from one Obs bundle. Its
   format is one Schema spec, so the writer and the validator the CLI
   re-reads the file with share one statement of it; the byte-exact
   seed-42 chaos golden pins the format. *)

let schema_tag = "ccp-timeline/v1"

type parts = { timeseries : Timeseries.t; topk : Topk.t option; health : Health.t option }

let spec =
  Schema.(
    doc
      ~check:(fun d ->
        let held = List.length (get_list d "windows") in
        let dropped = get_num d "windows_dropped" and total = get_num d "windows_total" in
        require
          (float_of_int held +. dropped = total)
          "held %d + dropped %g windows != total %g" held dropped total)
      [
        tag schema_tag;
        field "window_s" (number ~gt:0.0 ()) (fun d ->
            float_of_int (Timeseries.window_ns d.timeseries) /. 1e9);
        field "windows_total" count (fun d -> Timeseries.closed_windows d.timeseries);
        field "windows_dropped" count (fun d -> Timeseries.dropped_windows d.timeseries);
        field "windows" (list (obj Timeseries.window_spec)) (fun d ->
            Timeseries.windows d.timeseries);
        optional "topk" (list (obj Topk.spec)) (fun d -> Option.map Topk.sketches d.topk);
        optional "health" (obj Health.spec) (fun d -> d.health);
      ])

let compose ~timeseries ?topk ?health () = Schema.encode spec { timeseries; topk; health }

let of_obs (obs : Obs.t) =
  match obs.Obs.timeseries with
  | None -> Error "Timeline.of_obs: bundle has no timeseries"
  | Some ts -> Ok (compose ~timeseries:ts ?topk:obs.Obs.topk ?health:obs.Obs.health ())

let validate = Schema.validate spec ~count:"windows"
