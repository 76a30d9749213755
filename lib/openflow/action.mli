(** OpenFlow actions (the 1.0 subset the switch model executes). *)

type t =
  | Output of int  (** forward out a port number *)
  | Flood  (** all ports except the ingress *)
  | To_controller of int  (** send to controller, max_len bytes *)

val write_list : Bytes.t -> int -> t list -> int
(** Writes the actions (8 bytes each), returns the offset past them. *)

val read_list : Bytes.t -> int -> limit:int -> (t list, string) result
(** Reads actions up to [limit]. *)

val list_size : t list -> int

val equal : t -> t -> bool
