open Horse_net.Wire

type t = Output of int | Flood | To_controller of int

let port_flood = 0xFFFB
let port_controller = 0xFFFD

let list_size actions = 8 * List.length actions

let write buf off a =
  set_u16 buf off 0 (* OFPAT_OUTPUT *);
  set_u16 buf (off + 2) 8;
  (match a with
  | Output port ->
      set_u16 buf (off + 4) port;
      set_u16 buf (off + 6) 0
  | Flood ->
      set_u16 buf (off + 4) port_flood;
      set_u16 buf (off + 6) 0
  | To_controller max_len ->
      set_u16 buf (off + 4) port_controller;
      set_u16 buf (off + 6) max_len);
  off + 8

let read buf off =
  let* type_ = u16 buf off in
  if type_ <> 0 then Error (Printf.sprintf "ofp_action: unsupported type %d" type_)
  else
    let* len = u16 buf (off + 2) in
    if len <> 8 then Error "ofp_action: bad length"
    else
      let* port = u16 buf (off + 4) in
      let* max_len = u16 buf (off + 6) in
      let action =
        if port = port_flood then Flood
        else if port = port_controller then To_controller max_len
        else Output port
      in
      Ok (action, off + 8)

let write_list buf off actions =
  List.fold_left (fun off a -> write buf off a) off actions

let read_list buf off ~limit =
  let rec go off acc =
    if off > limit then Error "ofp_action: list overruns"
    else if off = limit then Ok (List.rev acc)
    else
      let* a, off' = read buf off in
      go off' (a :: acc)
  in
  go off []

let equal a b =
  match (a, b) with
  | Output p, Output q -> p = q
  | Flood, Flood -> true
  | To_controller m, To_controller n -> m = n
  | (Output _ | Flood | To_controller _), _ -> false
