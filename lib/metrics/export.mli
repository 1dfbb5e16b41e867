(** Machine-readable exporters for the telemetry plane.

    Renders a {!Registry} (and anything else the callers assemble) as
    either a JSON document or Prometheus text exposition format, and
    provides total parsers for both so tests and CI smoke jobs can
    assert the output round-trips. No external JSON dependency: the
    value type and recursive-descent parser live here. *)

(** A minimal JSON value. Numbers are floats (exact for the integer
    ranges the registry produces). *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

val num_of_int : int -> json

val num_dp : int -> float -> json
(** [num_dp d f] is [f] rounded to [d] decimal places exactly as
    [Printf "%.*f"] rounds it, so a report keeps the precision its
    text rendering shows. *)

val json_to_string : json -> string
(** Compact, valid JSON. Integral [Num]s print without a decimal
    point so the output round-trips textually for counter values;
    other [Num]s print in the fewest digits that read back exactly. *)

val parse_json : string -> (json, string) result
(** Total recursive-descent parser for the subset [json_to_string]
    emits (which is standard JSON with [\uXXXX] escapes decoded to
    UTF-8). [Error] carries a position-annotated message. *)

val member : string -> json -> json option
(** [member k (Obj ..)] looks up key [k]; [None] otherwise. *)

val registry_to_json : ?extra:(string * json) list -> Registry.t -> json
(** [Obj] with ["counters"] (scope/name/value rows) and
    ["histograms"] (scope/name/count/sum/mean/p50/p95/p99/min/max
    rows), followed by any [extra] top-level fields. *)

val registry_to_prometheus : ?namespace:string -> Registry.t -> string
(** Prometheus text exposition. Counter ["ecall.create_cvm"] in scope
    [Cvm 1] becomes
    [zion_ecall_create_cvm_total{cvm="1"} 42]; histograms render as
    summaries: [quantile]-labelled sample lines plus [_count] and
    [_sum]. Metric names are sanitized to [[a-zA-Z0-9_:]].
    [namespace] defaults to ["zion"]. *)

val parse_prometheus :
  string -> ((string * (string * string) list * float) list, string) result
(** Parse text exposition back into [(metric, labels, value)] samples
    ([#] comment and blank lines skipped). Total; [Error] on any
    malformed sample line. *)
