(** Route policy: ordered prefix filters applied on import and export.

    A small subset of a real routing policy language — enough to
    express the classic experiments (filter a customer's
    announcements, prefer one upstream by local-pref, prepend on a
    backup path). Rules are evaluated in order; the first matching
    rule decides. *)

open Horse_net

type match_ =
  | Any
  | Exact of Prefix.t
  | Within of Prefix.t  (** the route's prefix is a subset of this one *)
  | Has_community of int
      (** the route carries this RFC 1997 community tag *)

type action =
  | Accept
  | Reject
  | Accept_with of modifier list

and modifier =
  | Set_local_pref of int
  | Set_med of int
  | Prepend of int * int  (** AS, times *)
  | Add_community of int
  | Remove_community of int

type rule = { match_ : match_; action : action }

type t

val make : rule list -> t
(** The first matching rule decides; a route no rule matches is
    accepted unchanged. *)

val accept_all : t

val equal : t -> t -> bool
(** Structural equality (fast-pathed on physical equality). Peers
    whose export policies are [equal] share one update group. *)

val prefix_independent : t -> bool
(** True when no rule matches on the route's prefix ([Exact]/[Within])
    — evaluation then depends on the attributes alone, so export
    results can be memoized per interned attribute record. *)

val eval : t -> Prefix.t -> Msg.attrs -> Msg.attrs option
(** [None] = rejected; [Some attrs] = accepted, with modifiers
    applied. Community sets stay sorted and duplicate-free. *)
