(** The P4 pipeline interpreter: one switch's runtime state (table
    contents, counters) and packet execution.

    Executing a packet means: populate the metadata fields from the
    packet headers, run the control block (table lookups pick the
    highest-priority / longest-prefix matching entry or fall back to
    the table's default action), and read the verdict — the last
    egress port set by [Forward], unless any statement dropped. *)

(** A concrete match value for one key field. *)
type key_match =
  | K_exact of int
  | K_lpm of int * int  (** value, prefix length (bits of the field width) *)
  | K_ternary of int * int  (** value, mask *)

type entry = {
  e_table : string;
  key : key_match list;  (** positionally aligned with the table's keys *)
  priority : int;  (** higher wins among ternary ties *)
  action : string;
  args : int list;
}

val entry_key_equal : key_match list -> key_match list -> bool

type t

val create : Prog.t -> (t, string) result
(** Validates the program. *)

val insert : t -> entry -> (unit, string) result
(** Checks the entry against the table definition (key kinds and
    count, permitted action, argument arity) and installs it,
    replacing an entry with an identical key. *)

val delete : t -> table:string -> key:key_match list -> bool
(** [true] if an entry was removed. *)

val counter : t -> string -> int
(** @raise Invalid_argument on an unknown counter. *)

type outcome = Forwarded of int | Dropped

val exec : t -> (string * int) list -> outcome
(** Runs one packet, given initial metadata values (unlisted fields
    start at 0; values are masked to their field width). *)
