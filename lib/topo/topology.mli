(** The experiment topology: a directed multigraph of hosts, switches
    and routers joined by capacitated, delayed links.

    Links are created in duplex pairs (one directed link per
    direction, each with its own identity and its own load state) so
    the data plane can model asymmetric utilisation. Node and link
    identifiers are dense small integers, suitable as array indices
    throughout the engine. *)

open Horse_net

type kind = Host | Switch | Router

type node = {
  id : int;
  name : string;
  kind : kind;
  mutable ip : Ipv4.t option;  (** primary address (hosts, router loopbacks) *)
  mutable mac : Mac.t option;
}

type link = {
  link_id : int;
  src : int;  (** node id *)
  dst : int;  (** node id *)
  mutable capacity : float;  (** bits per second; see {!set_capacity} *)
  delay : Horse_engine.Time.t;  (** propagation delay *)
  peer : int;  (** link id of the reverse direction *)
}

type t

val create : unit -> t

val add_node : t -> ?name:string -> ?ip:Ipv4.t -> ?mac:Mac.t -> kind -> node
(** Fresh node; the default name is ["<kind><id>"]. *)

val add_duplex :
  t -> ?delay:Horse_engine.Time.t -> capacity:float -> node -> node -> link * link
(** [add_duplex t ~capacity a b] creates the directed pair
    [(a->b, b->a)]. Default delay is 10 µs.
    @raise Invalid_argument if capacity is not positive or the
    endpoints coincide. *)

val node : t -> int -> node
(** @raise Invalid_argument on an unknown id. *)

val link : t -> int -> link
(** @raise Invalid_argument on an unknown id. *)

val set_capacity : t -> int -> float -> unit
(** Re-plan one directed link's capacity (e.g. sizing a WAN for an
    expected traffic matrix). Must happen before the data plane caches
    link state — change capacities before starting flows.
    @raise Invalid_argument on an unknown id or non-positive
    capacity. *)

val nodes : t -> node list
(** In id order. *)

val links : t -> link list
(** In id order (both directions of every duplex pair). *)

val n_nodes : t -> int
val n_links : t -> int

val out_links : t -> int -> link list
(** Directed links leaving the node, in creation order. *)

val find_link : t -> src:int -> dst:int -> link option
(** The first directed link from [src] to [dst], if any. *)

val switch_links : t -> (string * string) list
(** One [(src, dst)] name pair per duplex link whose two ends are both
    switches or routers, taken from the pair's lower-id direction, in
    link-id order. Host links are left out. *)

val hosts : t -> node list
val switches : t -> node list
val routers : t -> node list

val node_by_name : t -> string -> node option
val node_by_ip : t -> Ipv4.t -> node option

val pp_node : Format.formatter -> node -> unit
