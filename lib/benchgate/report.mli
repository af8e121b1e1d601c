(** Machine-readable benchmark reports: the perf-gate's unit of exchange.

    A report is a suite of named probes, each carrying a flat list of
    metrics. Every metric is classed {!Deterministic} (virtual cycles,
    event/operation counts, allocation words — a pure function of the code
    under test, so any drift is a real change) or {!Advisory} (wall-clock
    time — machine-dependent, never gated on). Reports serialize with
    {!Obs.Json} to the committed [BENCH_PR<k>.json] files and to
    [bench/baseline.json], and {!Diff} compares two of them. *)

type kind = Deterministic | Advisory

(** Which way a deterministic metric may move. {!Cost}: lower is better
    (cycles, allocation words, event counts); growth fails the gate.
    {!Benefit}: higher is better (goodput, completed jobs, detected
    beats); a drop fails. {!Exact}: the value is a fixed property of the
    probe (operation counts, an identity flag, a schedule pinned to be
    byte-identical); any change fails. *)
type polarity = Cost | Benefit | Exact

type metric = { metric : string; value : float; kind : kind; polarity : polarity }

type probe = { probe : string; metrics : metric list }

type t = {
  schema : int;  (** codec version, bumped on layout changes *)
  label : string;  (** human tag, e.g. ["PR4"] or ["ci"] *)
  notes : (string * string) list;
      (** free-form provenance (optimization before/after records, scale) *)
  probes : probe list;
}

val schema_version : int

val make : ?notes:(string * string) list -> label:string -> probe list -> t

val find_probe : t -> string -> probe option

val find_metric : probe -> string -> metric option

val kind_tag : kind -> string
(** ["det"] / ["adv"], the on-disk tags. *)

val polarity_tag : polarity -> string
(** ["cost"] / ["benefit"] / ["exact"], the on-disk tags. *)

(** {2 Codec}

    Serialization is deterministic (field order fixed, floats as
    ["%.17g"]), so an unchanged suite produces byte-identical reports. *)

exception Malformed of string
(** Raised by {!of_string} / {!read_file} on JSON that parses but does not
    describe a report (wrong schema, missing fields, bad kind or polarity
    tags). Schema 2 added the per-metric polarity; schema-1 reports are
    refused, since reading one would mean guessing its polarities. *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> t

val to_string : t -> string

val of_string : string -> t
(** @raise Malformed on shape errors, {!Obs.Json.Parse_error} on syntax. *)

val write_file : string -> t -> unit

val read_file : string -> t
(** @raise Sys_error when unreadable, {!Malformed} / {!Obs.Json.Parse_error}
    as {!of_string}. *)
