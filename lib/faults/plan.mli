(** Declarative fault plans.

    A plan is a list of virtual-time fault events plus a list of flap
    generators, all addressed by {e node name} (so plans are plain
    data, portable across topologies that use the same names, and
    serializable). Plans are pure values: nothing happens until an
    {!Injector} arms one on a scheduler against a fabric.

    Determinism: the plan carries its own [seed]. Generators and
    impairments draw from per-site streams derived with
    {!Horse_engine.Rng.split_key}, so the same seed + plan always
    yields the same event sequence — and adding a fault site never
    perturbs another site's draws. *)

open Horse_engine

type site = { a : string; b : string }
(** A link or session, by the names of its two endpoint nodes.
    Orientation does not matter. *)

type action =
  | Link_down of site
  | Link_up of site
  | Node_crash of string  (** silent kill — peers notice via timers *)
  | Node_restart of string
  | Session_reset of site  (** Cease NOTIFICATION + automatic re-open *)
  | Impair of site * Horse_emulation.Channel.impairment
  | Clear_impair of site
  | Partition of string list
      (** cut every link with exactly one endpoint in the group — a
          bisection of the fabric *)
  | Heal of string list  (** restore the links cut by [Partition] *)

type event = { at : Time.t; action : action }

type flavor =
  | Periodic of Time.t  (** one flap every period, starting at [start] *)
  | Poisson of float
      (** mean flaps per second; exponential gaps drawn from the
          site's seeded stream *)

type generator = {
  g_site : site;
  g_start : Time.t;
  g_stop : Time.t;  (** no flap begins at or after this time *)
  g_down_for : Time.t;  (** link-down duration of each flap *)
  g_flavor : flavor;
}
(** A flap source: each flap is a [Link_down] at the drawn time and a
    [Link_up] [g_down_for] later. *)

type t = { seed : int; events : event list; generators : generator list }

val empty : t
(** Seed 0, no events, no generators. *)

val flap_storm :
  seed:int ->
  sites:(string * string) list ->
  start:Time.t ->
  stop:Time.t ->
  ?period:Time.t ->
  ?rate:float ->
  down_for:Time.t ->
  unit ->
  t
(** Convenience: one generator per site — [Periodic period] when
    [period] is given, else [Poisson rate] (default rate 0.5/s). *)

val site_label : site -> string
(** ["a<->b"], endpoint names sorted — the canonical fault-site key
    used for {!Horse_engine.Rng.split_key} streams and traces. *)

val action_label : action -> string
(** Human- and diff-friendly one-liner, e.g.
    ["link_down r0<->r1"]. Stable across runs (used by the
    determinism tests). *)

val action_kind : action -> string
(** Short kind tag for metric labels: ["link_down"], ["node_crash"],
    ["impair"], … *)

(** {2 JSON codec}

    Times are float seconds. The schema:
    {v
    { "seed": 7,
      "events": [
        {"at": 5.0, "action": "link_down", "a": "r0", "b": "r1"},
        {"at": 6.0, "action": "node_crash", "node": "r2"},
        {"at": 8.0, "action": "impair", "a": "r0", "b": "r1",
         "loss": 0.1, "extra_delay": 0.01, "jitter": 0.005,
         "duplicate": 0.05},
        {"at": 9.0, "action": "partition", "group": ["r0", "r1"]} ],
      "generators": [
        {"a": "r0", "b": "r1", "kind": "periodic", "period": 4.0,
         "down_for": 1.0, "start": 5.0, "stop": 25.0},
        {"a": "r2", "b": "r3", "kind": "poisson", "rate": 0.5,
         "down_for": 1.0, "start": 5.0, "stop": 25.0} ] }
    v} *)

val to_json : t -> Horse_telemetry.Json.t
val to_string : t -> string
val of_string : string -> (t, string) result
val load_file : string -> (t, string) result
