(** Registry of named counters and histograms, scoped per CVM.

    The aggregation companion of {!Trace}: where the trace keeps the
    last N events, the registry keeps running totals and latency
    distributions for the whole run. Metrics are addressed by a name
    plus a {!scope} — [Global] for platform-wide facts (PMP flips, TLB
    flushes, ecall counts) and [Cvm id] for per-tenant attribution
    (entries, exits, fault stages, switch-cycle histograms). *)

type scope = Global | Cvm of int

type t

val create : unit -> t

val inc : ?scope:scope -> ?by:int -> t -> string -> unit
(** Bump a counter, creating it at zero first if needed. [by] defaults
    to 1 and may be any sign. [scope] defaults to [Global]. *)

val counter : ?scope:scope -> t -> string -> int
(** Current counter value; [0] for unknown names. *)

val observe : ?scope:scope -> t -> string -> int -> unit
(** Record a sample into a named {!Histogram}, creating it if needed. *)

val histogram : ?scope:scope -> t -> string -> Histogram.t option

val counters : t -> (scope * string * int) list
(** All counters, Global first then by CVM id, names sorted. *)

val histograms : t -> (scope * string * Histogram.t) list

val clear : t -> unit

val dump : t -> string
(** Rendered tables of every counter and histogram, for the
    [zionctl telemetry] and [zionctl migrate] reports. Empty string
    when the registry recorded nothing. *)
