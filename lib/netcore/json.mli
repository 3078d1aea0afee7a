(** Minimal zero-dependency JSON: just enough for the serve protocol.

    One value type, a total recursive-descent parser, and a printer whose
    string escaper ({!escape}) is also the one {!Telemetry.report_json}
    and the batch records use. Numbers are floats (every integer the protocol carries fits a
    double exactly); object member order is preserved; duplicate keys
    keep their first occurrence under {!member}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse: leading/trailing whitespace allowed, anything
    else after the value is an error. Never raises. *)

val to_string : t -> string
(** Compact single-line rendering (no added whitespace), suitable for
    the line-delimited wire protocol. *)

val escape : string -> string
(** The body of a JSON string literal (quotes not included): ['"'],
    ['\\'], newline, carriage return and tab get their short escapes,
    every other control byte a [\u00XX] one; all else, UTF-8 included,
    passes through. *)

(** {1 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects. *)

val str : t -> string option
val num : t -> float option
val int : t -> int option
(** {!num} rounded; [None] when not within integer range. *)

val bool : t -> bool option
