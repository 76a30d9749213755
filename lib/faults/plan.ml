open Horse_engine
module Json = Horse_telemetry.Json
module Channel = Horse_emulation.Channel

type site = { a : string; b : string }

type action =
  | Link_down of site
  | Link_up of site
  | Node_crash of string
  | Node_restart of string
  | Session_reset of site
  | Impair of site * Channel.impairment
  | Clear_impair of site
  | Partition of string list
  | Heal of string list

type event = { at : Time.t; action : action }
type flavor = Periodic of Time.t | Poisson of float

type generator = {
  g_site : site;
  g_start : Time.t;
  g_stop : Time.t;
  g_down_for : Time.t;
  g_flavor : flavor;
}

type t = { seed : int; events : event list; generators : generator list }

let empty = { seed = 0; events = []; generators = [] }

let flap_storm ~seed ~sites ~start ~stop ?period ?(rate = 0.5) ~down_for () =
  let flavor =
    match period with Some p -> Periodic p | None -> Poisson rate
  in
  {
    seed;
    events = [];
    generators =
      List.map
        (fun (a, b) ->
          {
            g_site = { a; b };
            g_start = start;
            g_stop = stop;
            g_down_for = down_for;
            g_flavor = flavor;
          })
        sites;
  }

let site_label { a; b } = if String.compare a b <= 0 then a ^ "<->" ^ b else b ^ "<->" ^ a

let group_label group = String.concat "," (List.sort String.compare group)

let action_kind = function
  | Link_down _ -> "link_down"
  | Link_up _ -> "link_up"
  | Node_crash _ -> "node_crash"
  | Node_restart _ -> "node_restart"
  | Session_reset _ -> "session_reset"
  | Impair _ -> "impair"
  | Clear_impair _ -> "clear_impair"
  | Partition _ -> "partition"
  | Heal _ -> "heal"

let action_label = function
  | Link_down s -> "link_down " ^ site_label s
  | Link_up s -> "link_up " ^ site_label s
  | Node_crash n -> "node_crash " ^ n
  | Node_restart n -> "node_restart " ^ n
  | Session_reset s -> "session_reset " ^ site_label s
  | Impair (s, imp) ->
      Printf.sprintf "impair %s loss=%g delay=%gs jitter=%gs dup=%g"
        (site_label s) imp.Channel.loss
        (Time.to_sec imp.Channel.extra_delay)
        (Time.to_sec imp.Channel.jitter)
        imp.Channel.duplicate
  | Clear_impair s -> "clear_impair " ^ site_label s
  | Partition g -> "partition " ^ group_label g
  | Heal g -> "heal " ^ group_label g

(* --- JSON ----------------------------------------------------------- *)

let time_json t = Json.Float (Time.to_sec t)

let site_fields { a; b } = [ ("a", Json.String a); ("b", Json.String b) ]

let event_to_json { at; action } =
  let base = [ ("at", time_json at); ("action", Json.String (action_kind action)) ] in
  let rest =
    match action with
    | Link_down s | Link_up s | Session_reset s | Clear_impair s ->
        site_fields s
    | Node_crash n | Node_restart n -> [ ("node", Json.String n) ]
    | Impair (s, imp) ->
        site_fields s
        @ [
            ("loss", Json.Float imp.Channel.loss);
            ("extra_delay", time_json imp.Channel.extra_delay);
            ("jitter", time_json imp.Channel.jitter);
            ("duplicate", Json.Float imp.Channel.duplicate);
          ]
    | Partition g | Heal g ->
        [ ("group", Json.List (List.map (fun n -> Json.String n) g)) ]
  in
  Json.Obj (base @ rest)

let generator_to_json g =
  let kind_fields =
    match g.g_flavor with
    | Periodic p -> [ ("kind", Json.String "periodic"); ("period", time_json p) ]
    | Poisson r -> [ ("kind", Json.String "poisson"); ("rate", Json.Float r) ]
  in
  Json.Obj
    (site_fields g.g_site @ kind_fields
    @ [
        ("down_for", time_json g.g_down_for);
        ("start", time_json g.g_start);
        ("stop", time_json g.g_stop);
      ])

let to_json t =
  Json.Obj
    [
      ("seed", Json.Int t.seed);
      ("events", Json.List (List.map event_to_json t.events));
      ("generators", Json.List (List.map generator_to_json t.generators));
    ]

let to_string t = Json.to_string (to_json t)

(* Decoding: forgiving on numbers (ints accepted where floats are
   documented), strict on structure. *)
let ( let* ) = Result.bind

let num = function
  | Json.Int i -> Ok (float_of_int i)
  | Json.Float f -> Ok f
  | _ -> Error "expected a number"

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let num_field name j =
  let* v = field name j in
  Result.map_error (fun e -> Printf.sprintf "field %S: %s" name e) (num v)

let time_field name j =
  let* s = num_field name j in
  if s < 0.0 then Error (Printf.sprintf "field %S: negative time" name)
  else Ok (Time.of_sec s)

let string_field name j =
  let* v = field name j in
  match v with
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected a string" name)

let site_of j =
  let* a = string_field "a" j in
  let* b = string_field "b" j in
  Ok { a; b }

let group_of j =
  let* v = field "group" j in
  match v with
  | Json.List items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | Json.String s -> Ok (s :: acc)
          | _ -> Error "field \"group\": expected strings")
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error "field \"group\": expected a list"

let impairment_of j =
  let opt_num name default =
    match Json.member name j with
    | None -> Ok default
    | Some v ->
        Result.map_error (fun e -> Printf.sprintf "field %S: %s" name e) (num v)
  in
  let* loss = opt_num "loss" 0.0 in
  let* duplicate = opt_num "duplicate" 0.0 in
  let* extra_delay = opt_num "extra_delay" 0.0 in
  let* jitter = opt_num "jitter" 0.0 in
  Ok
    {
      Channel.loss;
      duplicate;
      extra_delay = Time.of_sec extra_delay;
      jitter = Time.of_sec jitter;
    }

let event_of j =
  let* at = time_field "at" j in
  let* kind = string_field "action" j in
  let* action =
    match kind with
    | "link_down" ->
        let* s = site_of j in
        Ok (Link_down s)
    | "link_up" ->
        let* s = site_of j in
        Ok (Link_up s)
    | "node_crash" ->
        let* n = string_field "node" j in
        Ok (Node_crash n)
    | "node_restart" ->
        let* n = string_field "node" j in
        Ok (Node_restart n)
    | "session_reset" ->
        let* s = site_of j in
        Ok (Session_reset s)
    | "impair" ->
        let* s = site_of j in
        let* imp = impairment_of j in
        Ok (Impair (s, imp))
    | "clear_impair" ->
        let* s = site_of j in
        Ok (Clear_impair s)
    | "partition" ->
        let* g = group_of j in
        Ok (Partition g)
    | "heal" ->
        let* g = group_of j in
        Ok (Heal g)
    | other -> Error (Printf.sprintf "unknown action %S" other)
  in
  Ok { at; action }

let generator_of j =
  let* site = site_of j in
  let* kind = string_field "kind" j in
  let* flavor =
    match kind with
    | "periodic" ->
        let* p = time_field "period" j in
        if Time.(p <= Time.zero) then Error "field \"period\": must be positive"
        else Ok (Periodic p)
    | "poisson" ->
        let* r = num_field "rate" j in
        if r <= 0.0 then Error "field \"rate\": must be positive"
        else Ok (Poisson r)
    | other -> Error (Printf.sprintf "unknown generator kind %S" other)
  in
  let* down_for = time_field "down_for" j in
  let* start = time_field "start" j in
  let* stop = time_field "stop" j in
  Ok
    {
      g_site = site;
      g_start = start;
      g_stop = stop;
      g_down_for = down_for;
      g_flavor = flavor;
    }

let list_of name of_item j =
  match Json.member name j with
  | None -> Ok []
  | Some (Json.List items) ->
      let rec go acc i = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match of_item item with
            | Ok v -> go (v :: acc) (i + 1) rest
            | Error e ->
                Error (Printf.sprintf "%s[%d]: %s" name i e))
      in
      go [] 0 items
  | Some _ -> Error (Printf.sprintf "field %S: expected a list" name)

let of_json j =
  let* seed =
    match Json.member "seed" j with
    | None -> Ok 0
    | Some (Json.Int i) -> Ok i
    | Some _ -> Error "field \"seed\": expected an integer"
  in
  let* events = list_of "events" event_of j in
  let* generators = list_of "generators" generator_of j in
  Ok { seed; events; generators }

let of_string s =
  let* j = Json.parse s in
  of_json j

let load_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> of_string contents
  | exception Sys_error e -> Error e
