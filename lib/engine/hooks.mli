(** Growable registration-ordered callback lists.

    Subsystems that expose [on_<event>] registration used to append to
    an immutable list ([hooks <- hooks @ [f]]), making [n]
    registrations cost O(n²) and allocate n intermediate lists. This
    is a minimal amortised-O(1) dynamic array that preserves
    registration order on iteration. The element type is left fully
    polymorphic so callbacks of any arity can be stored without
    wrapping closures. *)

type 'f t

val create : unit -> 'f t

val add : 'f t -> 'f -> unit
(** Amortised O(1); iteration visits hooks in [add] order. *)

val iter : ('f -> unit) -> 'f t -> unit
(** No allocation besides the caller's closure; hooks added during
    iteration are not visited in that pass. *)
