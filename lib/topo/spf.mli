(** Shortest paths and equal-cost multipath enumeration.

    Paths are hop-count shortest (every link has weight 1, matching how
    the demonstration's fabrics route). A path is the list of directed
    links from source to destination, in order. *)

type path = Topology.link list

val path_nodes : path -> int list
(** Node ids visited, source first. Empty path gives []. *)

val path_length : path -> int

type tree = {
  src : int;
  dist : int array;  (** [max_int] where unreachable *)
  preds : Topology.link list array;
      (** for each node, every in-link lying on some shortest path *)
}

val shortest_tree : Topology.t -> src:int -> tree
(** Breadth-first search from [src] over the whole component, every
    link usable. [preds] lists are in ascending link id. *)

val distance : tree -> int -> int option
(** Distance to a node, [None] if unreachable. *)

val first_path : tree -> Topology.t -> dst:int -> path option
(** One (deterministic) shortest path from the tree's source. *)

val ecmp_paths : ?max_paths:int -> tree -> Topology.t -> dst:int -> path list
(** All distinct equal-cost shortest paths, in a deterministic order,
    truncated to [max_paths] (default 64). Empty if unreachable or
    [dst = src]. *)

(** {1 Per-query search}

    A controller asks for the paths of one (src, dst) pair at a time,
    so a full tree per query wastes most of its work. {!ecmp_between}
    searches only as far as [dst] on a reusable workspace, and
    {!ecmp_pick} also builds only the one path the caller keeps. The
    workspace keeps its last search open: a query from the same root
    resumes it only until its own [dst] is discovered. {!ecmp_pick}
    roots a single-homed source at its uplink's far end, so the hosts
    behind one edge switch share one search. *)

type workspace
(** Scratch arrays for {!ecmp_between} and {!ecmp_pick}, grown to
    the topology's node count on first use, reset in O(1) between
    searches, and holding one open search. A workspace serves one
    topology and one [usable] predicate: call {!invalidate} whenever a
    link's answer changes or a link is added. *)

val workspace : unit -> workspace

val invalidate : workspace -> unit
(** Drops the open search, so the next query starts a new one. *)

val ecmp_between :
  usable:(Topology.link -> bool) ->
  workspace ->
  Topology.t ->
  src:int ->
  dst:int ->
  path list
(** {!ecmp_paths} over the shortest-path tree from [src] of the links
    [usable] accepts, element for element, without building the tree:
    the search from [src] runs until [dst] is discovered and the paths
    are enumerated backward from it. Needs every link to come from
    {!Topology.add_duplex}, which is the only link constructor. *)

val ecmp_pick :
  usable:(Topology.link -> bool) ->
  workspace ->
  Topology.t ->
  src:int ->
  dst:int ->
  (int -> int) ->
  path option
(** [ecmp_pick ~usable ws topo ~src ~dst index] is
    [Some (List.nth paths (index (List.length paths)))] for
    [paths = ecmp_between ~usable ws topo ~src ~dst], without building
    the list. A source with exactly one link (every fat-tree host) is
    searched from the node at that link's far end, and the uplink
    heads the path (there is none when [usable] rejects the uplink);
    any other source is searched from itself. Then a count of the shortest paths to each node on the way
    back from [dst] (saturating at the 64-path cap, and memoised for
    as long as the search stays open), then only the chosen path.
    [index] receives the count, between 1 and 64, and must return an
    index below it. [None], without calling [index], when
    [ecmp_between] would return [].
    @raise Invalid_argument if [index] returns an index out of
    range. *)
