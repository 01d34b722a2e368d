(** The [ccp-timeline/v1] document: the {!Timeseries} windows plus the
    optional {!Topk} and {!Health} sections, composed from one {!Obs}
    bundle. Like the scenario scorecards, its format is one {!Schema}
    spec from which both the encoder and the validator are derived, so
    [ccp_sim --timeline] can write-then-revalidate the file it just
    produced. *)

val schema_tag : string
(** ["ccp-timeline/v1"] *)

val compose :
  timeseries:Timeseries.t -> ?topk:Topk.t -> ?health:Health.t -> unit -> Json.t

val of_obs : Obs.t -> (Json.t, string) result
(** Compose from a bundle; [Error] when the bundle was created without
    telemetry. *)

val validate : Json.t -> (int, string) result
(** Check a parsed document against the spec: schema tag, window
    accounting (held + dropped = total), per-window spans
    (t_end > t_start >= 0), per-point fields by kind with counter deltas
    and histogram counts as non-negative integers, gauge last within
    min/max and monotone quantiles, Top-K [k >= 1], at most [k] entries
    and every err within the space-saving bound, and the health
    section's verdicts and transitions. Returns the number of held
    windows. *)
