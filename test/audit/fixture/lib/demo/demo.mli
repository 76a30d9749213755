val used : int -> int
(** Called from another module of the library. *)

val test_only : int -> int
(** Called only from test/. *)

val unused : int
(** Called from nowhere. *)

val scaled : ?factor:int -> int -> int
(** Called from bin/ without [?factor]; only a test passes it. *)
