(** The table-programming control protocol (a P4Runtime stand-in).

    Binary request/response messages carried over emulated control
    channels — so programming a P4 switch is control-plane traffic the
    Connection Manager observes, and table writes pull the hybrid
    clock into FTI mode exactly like FLOW_MODs do. *)

type request =
  | Hello
  | Insert of Interp.entry
  | Delete of { d_table : string; d_key : Interp.key_match list }
  | Counter_read of string

type response =
  | Ack
  | Nack of string
  | Counter_value of string * int

val encode_request : xid:int -> request -> Bytes.t
val decode_request : Bytes.t -> (int * request, string) result

val encode_response : xid:int -> response -> Bytes.t
val decode_response : Bytes.t -> (int * response, string) result

val request_equal : request -> request -> bool
val response_equal : response -> response -> bool
