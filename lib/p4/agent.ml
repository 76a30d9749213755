open Horse_engine
open Horse_emulation

type t = {
  proc : Process.t;
  engine : Interp.t;
  ports : (int * int) list;
  endpoint : Channel.endpoint;
  trace : Trace.t option;
  mutable writes : int;
  mutable nacks : int;
}

let tracef t fmt =
  match t.trace with
  | Some trace ->
      Trace.addf trace ~at:(Sched.now (Process.scheduler t.proc)) ~label:"p4" fmt
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let reply t xid resp = Channel.send t.endpoint (Runtime.encode_response ~xid resp)

let handle t xid req =
  match (req : Runtime.request) with
  | Runtime.Hello -> reply t xid Runtime.Ack
  | Runtime.Insert entry -> (
      match Interp.insert t.engine entry with
      | Ok () ->
          t.writes <- t.writes + 1;
          reply t xid Runtime.Ack
      | Error msg ->
          t.nacks <- t.nacks + 1;
          reply t xid (Runtime.Nack msg))
  | Runtime.Delete { d_table; d_key } ->
      if Interp.delete t.engine ~table:d_table ~key:d_key then begin
        t.writes <- t.writes + 1;
        reply t xid Runtime.Ack
      end
      else begin
        t.nacks <- t.nacks + 1;
        reply t xid (Runtime.Nack "no such entry")
      end
  | Runtime.Counter_read c -> (
      match Interp.counter t.engine c with
      | v -> reply t xid (Runtime.Counter_value (c, v))
      | exception Invalid_argument msg ->
          t.nacks <- t.nacks + 1;
          reply t xid (Runtime.Nack msg))

let receive t bytes =
  if Process.is_alive t.proc then
    match Runtime.decode_request bytes with
    | Ok (xid, req) -> handle t xid req
    | Error msg -> tracef t "runtime decode error: %s" msg

let create ?trace proc ~program ~ports endpoint =
  let port_numbers = List.map fst ports in
  if List.length (List.sort_uniq Int.compare port_numbers) <> List.length ports
  then Error "Agent.create: duplicate port numbers"
  else
    match Interp.create program with
    | Error _ as e -> e
    | Ok engine ->
        let t =
          { proc; engine; ports; endpoint; trace; writes = 0; nacks = 0 }
        in
        Channel.set_receiver endpoint (fun bytes -> receive t bytes);
        Ok t

let link_of_port t port = List.assoc_opt port t.ports

let port_of_link t link =
  List.find_map (fun (p, l) -> if l = link then Some p else None) t.ports

let process t fields = Interp.exec t.engine fields
let writes_applied t = t.writes
let nacks_sent t = t.nacks
