(* api_audit: the dead-surface check of the library interfaces.

   Usage: api_audit.exe ROOT

   Prints two sorted sections from one scan. "# unreferenced" lists
   every [val] declared in ROOT/lib/*/*.mli that no file outside its
   own module refers to, then every optional argument ([M.v ?l]) of a
   referenced [val] that no outside caller passes. "# reached only from
   test/" lists the values and optional arguments that would join the
   first section if ROOT/test did not exist: everything only tests
   call or pass. "Outside" is every .ml/.mli under lib, bin, bench,
   test and examples except the module's own pair and this directory.
   The scan is textual, over tokens with comments and string literals
   removed:

   - [M.v] refers to v, also through a library wrapper
     ([Horse_core.M.v]) or a module alias ([module I = Horse_faults.
     Injector], then [I.v]);
   - a bare [v] refers to [M.v] in a file that opens or includes M, and
     inside a local open [M.( ... )];
   - a module N whose .ml does [include M] and whose .mli declares [v]
     re-exports [M.v], and passes all of its arguments;
   - a module path given as a functor argument, [F (M.Sub)], refers to
     every value of [M.Sub];
   - a caller passes [?l] when [~l] or [?l] follows the reference before
     the application ends: at a closing bracket, a keyword such as [in]
     or [then], or an infix operator.

   The scan can err both ways (a local [let start] in a file that opens
   M counts as a use of [M.start]); the [dune] rule diffs the output
   against [api_audit.expected], so a change in either direction shows
   up in review, and an accepted one goes in with [dune promote]. The
   rule over [fixture/] pins how the two sections classify.

   Reviewed keeps in "# unreferenced":
   - [Leaf_spine.build ?capacity], [?delay] and [?uplink_capacity], and
     [Leaf_spine.leaf_of_host]: the leaf-spine generator stays whole
     for the generated-scenario item on the roadmap ("Invariants and
     generated-scenario differentials"), which needs its link
     parameters (oversubscribed uplinks) and the host-to-leaf map.
   - [Registry.histogram ?labels], [Registry.find_gauge ?labels] and
     [Registry.find_histogram ?labels]: a metric is keyed by its name
     and labels, every kind is registered and looked up with the same
     shape, and labelled gauges exist (the BGP speaker's), so a lookup
     without labels could not reach them.

   Reviewed keeps in "# reached only from test/", by category. A
   feature nothing runs is deleted with the tests that only check it,
   and a test-only duplicate of a production function is deleted for
   the production one; what stays is one of these.
   - Read-only inspection: counters, accessors and pure queries a test
     reads state through, the causal kinds with their payload packers
     and printers, the codec [equal]s, and observer hooks that only
     watch ([Routed_core.on_fib_change], [Switch.on_expired], and
     [Connection_manager.on_channel], through which a test adds its
     own observer to each control channel).
     Agent.{nacks_sent,writes_applied}, App_ecmp.{flows_routed,
     reroutes}, Attr_intern.{hits,size}, Causal.hash, Channel.{
     batch_kind,send_kind,bytes_sent,messages_sent,impaired_dropped,
     impaired_duplicated,peer}, Connection_manager.{channels_created,
     on_channel,quiet_since}, Controller.packet_in_kind, Daemon.{
     adj_kind,lsa_kind,spf_kind,pack_adj,pp_neighbor_state,counters,lsdb,
     neighbor_state,routes}, Env.edge_switch_of_host, Event_queue.is_cancelled,
     Export.validate_jsonl_line, Fair_share.Delta.{flow_count,rate}
     ([Fluid] reads rates through [iter_touched]; the solver tests
     compare every live flow's rate with the oracle),
     Fat_tree.{host_of_ip,pod_of_host}, Flow_key.equal,
     Flow_table.stats, Fluid.{current_rate,flows_on_link,host_rx_rate,
     host_series,link_utilization}, Fwd.{lengths,route_count},
     Histogram.{buckets,overflow,underflow}, Injector.report_json,
     Lsdb.{lookup,size}, Msg.equal, Ofmatch.fields_equal, Ofmsg.equal,
     Ospf_fabric.fib_write_detail, Ospf_msg.equal, P4_fabric.{
     nacks_received,programmed}, Packet.{equal,size}, Packet_engine.{
     max_delay,mean_delay,rx_bytes,tx_packets}, Registry.{cardinality,
     find_gauge}, Rib.{adj_in,
     intern_table}, Routed_core.{is_converged,on_fib_change,
     sessions_established,sessions_expected}, Routed_fabric.{
     pack_fib_write,fib_write_detail}, Runtime.{request_equal,
     response_equal}, Sched.{aborted,snapshot}, Sdn_fabric.{find_flow,
     handshaken,key_rebuilds,packet_ins,resolve_now} ([find_flow] is
     the flow-statistics lookup, called inside its own module), Span.open_count, Speaker.{best,counters,
     decide_kind,established_kind,update_kind,pack_update,peer_state,
     rib,routes,update_group_count}, Spf.{path_length,
     path_nodes}, Summary.of_list, Switch.{flow_mod_kind,packet_in_kind,
     flow_mods_received,is_port_down,on_expired,table}, Topology.routers,
     Traffic.{in_flight,records,sample_size,unroutable},
     Traffic_matrix.{demand,n,total}, Wan.router_ip.
   - Hooks that let a test reach a cap, substitute a fake, check a pure
     internal alone, or set up a state the shipped runs only reach in
     bulk: [Causal.create ?max_nodes], Clock.with_source,
     App_ecmp.path_index, Placer.oversubscription, Mininet_model.{
     creation_seconds,default_creation_model}, Flow_table.account (hit
     counters without a lookup), Span.{enter,exit} (a span left open).
   - Codec and address counterparts: the parsers, constructors and
     inverses that tests write their inputs and round-trip properties
     with. Ipv4.{of_string_exn,to_octets}, Mac.{of_string,of_string_exn,
     to_string}, Prefix.{of_string,of_string_exn,nth,split,size,
     broadcast}, Packet.{arp_request,arp_reply,tcp}, Flow_key.reverse,
     Msg.{community,origin_of_int,header_size,max_message_size},
     Ofmatch.{matches,to_dst}, Plan.{flap_storm,to_string}.
   - Named by an open roadmap item:
     - "Invariants and generated-scenario differentials": Rib.candidates
       and Flow_table.entries (the Loc-RIB and lookup invariants read
       them), Leaf_spine.{build,host_ip,leaf_prefix} (a generator
       input), Plan.{to_json,of_string} (the JSON round trip a spec
       codec follows);
     - "The megauser day on a routed control plane": Speaker.{announce,
       withdraw_network} (the anycast drain and its re-announce);
     - "Measure the fluid model's error": Packet_engine.inject;
     - "One event record: delete Trace": Trace.{add,by_label,
       capacity,clear,dropped,entries,length,total_added} and
       [Trace.create ?capacity], until Trace itself goes after the
       benchmark change.
   - BGP policy, for the parked IXP route-server item: Policy.make and
     [Speaker.add_peer ?import] and [?export]. Removing them would
     reshape the speaker's update groups, so it is a change of its own.
   - Speaker.shutdown: the administrative session-down that
     [Speaker.start_peer] undoes. No fault plan reaches it; deleting it
     takes the admin-down state out of the session machine, a change to
     session handling of its own. *)

let keywords =
  [ "and"; "as"; "assert"; "begin"; "class"; "constraint"; "do"; "done"; "downto";
    "else"; "end"; "exception"; "external"; "false"; "for"; "fun"; "function";
    "functor"; "if"; "in"; "include"; "inherit"; "initializer"; "lazy"; "let";
    "match"; "method"; "module"; "mutable"; "new"; "nonrec"; "object"; "of";
    "open"; "or"; "private"; "rec"; "sig"; "struct"; "then"; "to"; "true"; "try";
    "type"; "val"; "virtual"; "when"; "while"; "with" ]

let is_keyword s = List.mem s keywords

(* Keywords that end an application when they follow it. *)
let ends_application s = is_keyword s && not (List.mem s [ "lazy"; "false"; "true"; "new" ])

type tok =
  | Uid of string
  | Lid of string (* also keywords *)
  | Label of bool * string (* optional?, name: [~l], [~l:], [?l], [?l:] *)
  | Dot
  | Open of string (* ( [ [| { begin struct sig object *)
  | Close (* ) ] |] } end *)
  | Op of string (* operators and punctuation *)
  | Literal (* numbers and characters *)

let is_op_char = function
  | '!' | '$' | '%' | '&' | '*' | '+' | '-' | '.' | '/' | ':' | '<' | '=' | '>' | '?' | '@'
  | '^' | '|' | '~' | '#' ->
      true
  | _ -> false

let is_id_char = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
let is_lower = function 'a' .. 'z' | '_' -> true | _ -> false

let lex s =
  let n = String.length s in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let at i c = i < n && s.[i] = c in
  let rec skip_string i =
    if i >= n then n
    else if s.[i] = '\\' then skip_string (i + 2)
    else if s.[i] = '"' then i + 1
    else skip_string (i + 1)
  in
  (* [{id|...|id}]: returns the index after the closing delimiter, or
     [None] when [{] at [i] does not open a quoted string. *)
  let quoted_string i =
    let j = ref (i + 1) in
    while !j < n && is_lower s.[!j] do incr j done;
    if not (at !j '|') then None
    else begin
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let k = ref (!j + 1) in
      while !k + m <= n && String.sub s !k m <> close do incr k done;
      Some (min n (!k + m))
    end
  in
  let rec skip_comment i depth =
    if i >= n then n
    else if at i '(' && at (i + 1) '*' then skip_comment (i + 2) (depth + 1)
    else if at i '*' && at (i + 1) ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else if s.[i] = '"' then skip_comment (skip_string (i + 1)) depth
    else skip_comment (i + 1) depth
  in
  let ident i =
    let j = ref i in
    while !j < n && is_id_char s.[!j] do incr j done;
    !j
  in
  let ops i =
    let j = ref i in
    while !j < n && is_op_char s.[!j] do incr j done;
    !j
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '(' when at (i + 1) '*' -> go (skip_comment (i + 2) 1)
      | '"' -> go (skip_string (i + 1))
      | '\'' ->
          if at (i + 1) '\\' then begin
            let j = ref (i + 2) in
            while !j < n && s.[!j] <> '\'' do incr j done;
            emit Literal;
            go (!j + 1)
          end
          else if at (i + 2) '\'' then begin
            emit Literal;
            go (i + 3)
          end
          else go (i + 1)
      | 'A' .. 'Z' ->
          let j = ident i in
          emit (Uid (String.sub s i (j - i)));
          go j
      | 'a' .. 'z' | '_' ->
          let j = ident i in
          let w = String.sub s i (j - i) in
          if (w = "let" || w = "and") && j < n && is_op_char s.[j] then begin
            let k = ops j in
            emit (Op (String.sub s i (k - i)));
            go k
          end
          else begin
            (match w with
            | "begin" | "struct" | "sig" | "object" -> emit (Open w)
            | "end" -> emit Close
            | _ -> emit (Lid w));
            go j
          end
      | '0' .. '9' ->
          let j = ref i in
          while !j < n && (is_id_char s.[!j] || s.[!j] = '.') do incr j done;
          emit Literal;
          go !j
      | ('~' | '?') when i + 1 < n && is_lower s.[i + 1] ->
          let j = ident (i + 1) in
          emit (Label (s.[i] = '?', String.sub s (i + 1) (j - i - 1)));
          if at j ':' && not (at (j + 1) ':' || at (j + 1) '=') then go (j + 1) else go j
      | '(' -> emit (Open "("); go (i + 1)
      | '[' when at (i + 1) '|' -> emit (Open "[|"); go (i + 2)
      | '[' -> emit (Open "["); go (i + 1)
      | '{' -> (
          match quoted_string i with
          | Some j -> go j
          | None -> emit (Open "{"); go (i + 1))
      | '|' when at (i + 1) ']' -> emit Close; go (i + 2)
      | ')' | ']' | '}' -> emit Close; go (i + 1)
      | '.' when not (at (i + 1) '.') -> emit Dot; go (i + 1)
      | c when is_op_char c ->
          let j = ops i in
          emit (Op (String.sub s i (j - i)));
          go j
      | c -> emit (Op (String.make 1 c)); go (i + 1)
  in
  go 0;
  Array.of_list (List.rev !toks)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every .ml/.mli under [dir], sorted, skipping [_build] and hidden
   directories. *)
let rec sources dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then
             if name = "_build" || name.[0] = '.' then [] else sources path
           else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then
             [ path ]
           else [])

let module_of_file path =
  String.capitalize_ascii Filename.(remove_extension (basename path))

(* {1 The declared surface} *)

type decl = { key : string; (* "M.v" or "M.Sub.v" *) optional : string list }

(* The [val]s of one .mli, with the optional labels of each type's
   outermost arrows; [module X : sig ... end] nests its values under X.
   Also returns the submodule paths it declares. *)
let declarations modname toks =
  let n = Array.length toks in
  let decls = ref [] and subs = ref [] in
  let depth = ref 0 in
  let stack = ref [] (* (module path, depth inside its sig) *) in
  let path () = match !stack with [] -> modname | (p, _) :: _ -> p in
  let item_depth () = match !stack with [] -> 0 | (_, d) :: _ -> d in
  let starts_item i =
    match toks.(i) with
    | Lid ("val" | "type" | "module" | "exception" | "external" | "include" | "open" | "class") ->
        true
    | _ -> false
  in
  let i = ref 0 in
  while !i < n do
    (match toks.(!i) with
    | Lid "val" when !depth = item_depth () ->
        let name, j =
          match toks.(!i + 1) with
          | Lid v -> (v, !i + 2)
          | Open "(" -> (
              match toks.(!i + 2) with Op o | Lid o -> (o, !i + 4) | _ -> ("?", !i + 2))
          | _ -> ("?", !i + 1)
        in
        (* The type runs to the next item at this depth or the [end]
           of the enclosing sig. *)
        let k = ref j and d = ref 0 and optional = ref [] in
        while !k < n && not (!d = 0 && (starts_item !k || toks.(!k) = Close)) do
          (match toks.(!k) with
          | Open _ -> incr d
          | Close -> decr d
          | Label (true, l) when !d = 0 -> optional := l :: !optional
          | _ -> ());
          incr k
        done;
        decls := { key = path () ^ "." ^ name; optional = List.rev !optional } :: !decls;
        i := !k - 1
    | Lid "module" when !depth = item_depth () -> (
        match (toks.(!i + 1), toks.(!i + 2), toks.(!i + 3)) with
        | Uid x, Op ":", Open "sig" ->
            let p = path () ^ "." ^ x in
            subs := p :: !subs;
            depth := !depth + 1;
            stack := (p, !depth) :: !stack;
            i := !i + 3
        | _ -> ())
    | Open _ -> incr depth
    | Close ->
        (match !stack with (_, d) :: rest when d = !depth -> stack := rest | _ -> ());
        decr depth
    | _ -> ());
    incr i
  done;
  (List.rev !decls, !subs)

(* {1 References} *)

type state = {
  decls : (string, decl) Hashtbl.t;
  modules : (string, unit) Hashtbl.t; (* module and submodule paths *)
  wrappers : string list; (* library wrapper modules, e.g. Horse_core *)
  referenced : (string, unit) Hashtbl.t;
  passed : (string, unit) Hashtbl.t; (* "M.v ?l" *)
}

let top key = match String.index_opt key '.' with Some i -> String.sub key 0 i | None -> key
let parent key = String.sub key 0 (String.rindex key '.')
let last key = let i = String.rindex key '.' + 1 in String.sub key i (String.length key - i)

let mark st ~self key =
  if Hashtbl.mem st.decls key && Some (top key) <> self then begin
    Hashtbl.replace st.referenced key ();
    true
  end
  else false

(* Labels after the token at [i] that belong to the same application. *)
let labels_after toks i =
  let n = Array.length toks in
  let rec go i depth acc =
    if i >= n then acc
    else
      match toks.(i) with
      | Open _ -> go (i + 1) (depth + 1) acc
      | Close -> if depth = 0 then acc else go (i + 1) (depth - 1) acc
      | Label (_, l) when depth = 0 -> go (i + 1) depth (l :: acc)
      | Lid w when depth = 0 && ends_application w -> acc
      | Op o when depth = 0 && o <> "!" -> acc
      | _ -> go (i + 1) depth acc
  in
  go (i + 1) 0 []

let mark_call st ~self toks i key =
  if mark st ~self key then
    List.iter
      (fun l -> Hashtbl.replace st.passed (key ^ " ?" ^ l) ())
      (labels_after toks i)

(* Scans one file outside its own module for the values it refers to. *)
let scan st ~self toks =
  let n = Array.length toks in
  let aliases = Hashtbl.create 8 in
  let opens = ref [] (* file-level opens and includes, innermost first *) in
  let local = ref [] (* (module path, bracket depth) of local opens *) in
  let depth = ref 0 in
  let pending_local = ref None in
  (* The module path a written path [comps] names, if it is one of ours. *)
  let canonical comps =
    let rec strip = function
      | w :: (_ :: _ as rest) when List.mem w st.wrappers -> strip rest
      | comps -> comps
    in
    match strip comps with
    | [] -> None
    | h :: rest -> (
        let cat p = Some (String.concat "." (p :: rest)) in
        match Hashtbl.find_opt aliases h with
        | Some p -> cat p
        | None ->
            if Hashtbl.mem st.modules h then cat h
            else
              List.find_map
                (fun o -> if Hashtbl.mem st.modules (o ^ "." ^ h) then cat (o ^ "." ^ h) else None)
                (List.map fst !local @ !opens))
  in
  let known comps =
    match canonical comps with Some p when Hashtbl.mem st.modules p -> Some p | _ -> None
  in
  (* [Uid (Dot Uid)*] starting at [i]: the components and the index of
     the last one. *)
  let path i =
    let rec go j acc =
      match (toks.(j), if j + 2 < n then Some (toks.(j + 1), toks.(j + 2)) else None) with
      | Uid u, Some (Dot, Uid _) -> go (j + 2) (u :: acc)
      | Uid u, _ -> (List.rev (u :: acc), j)
      | _ -> assert false
    in
    go i []
  in
  let i = ref 0 in
  while !i < n do
    (match toks.(!i) with
    | Uid _ when !i = 0 || toks.(!i - 1) <> Dot -> (
        let comps, j = path !i in
        let prev = if !i > 0 then Some toks.(!i - 1) else None in
        let prev2 = if !i > 1 then Some toks.(!i - 2) else None in
        let next = if j + 1 < n then Some toks.(j + 1) else None in
        let after = if j + 2 < n then Some toks.(j + 2) else None in
        match (next, after) with
        | Some Dot, Some (Lid v) ->
            Option.iter (fun p -> mark_call st ~self toks (j + 2) (p ^ "." ^ v)) (canonical comps);
            i := j + 2
        | Some Dot, Some (Open "(") ->
            pending_local := known comps;
            i := j + 1
        | _ ->
            (match (prev, prev2, known comps) with
            | Some (Lid ("open" | "include")), _, Some p
            | Some (Op "!"), Some (Lid "open"), Some p ->
                opens := p :: !opens
            | Some (Op "="), Some (Uid x), Some p -> Hashtbl.replace aliases x p
            | Some (Open "("), _, Some p when next = Some Close ->
                (* A functor argument: the functor may call any value. *)
                Hashtbl.iter
                  (fun key _ -> if parent key = p then ignore (mark st ~self key))
                  st.decls
            | _ -> ());
            i := j)
    | Lid v when not (is_keyword v) && (!i = 0 || toks.(!i - 1) <> Dot) ->
        List.iter (fun o -> mark_call st ~self toks !i (o ^ "." ^ v)) (List.map fst !local @ !opens)
    | Op o when !local <> [] || !opens <> [] ->
        List.iter (fun m -> mark_call st ~self toks !i (m ^ "." ^ o)) (List.map fst !local @ !opens)
    | Open _ ->
        incr depth;
        Option.iter (fun p -> local := (p, !depth) :: !local) !pending_local;
        pending_local := None
    | Close ->
        local := List.filter (fun (_, d) -> d <> !depth) !local;
        decr depth
    | _ -> ());
    incr i
  done

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let lib = Filename.concat root "lib" in
  let libs =
    Sys.readdir lib |> Array.to_list |> List.sort compare
    |> List.filter (fun d -> Sys.is_directory (Filename.concat lib d))
  in
  let st =
    {
      decls = Hashtbl.create 1024;
      modules = Hashtbl.create 128;
      wrappers = List.map (fun d -> "Horse_" ^ d) libs;
      referenced = Hashtbl.create 1024;
      passed = Hashtbl.create 256;
    }
  in
  let order = ref [] in
  let decls_of = Hashtbl.create 128 in
  List.iter
    (fun d ->
      List.iter
        (fun mli ->
          if Filename.dirname mli = Filename.concat lib d && Filename.check_suffix mli ".mli" then begin
            let m = module_of_file mli in
            let ds, subs = declarations m (lex (read_file mli)) in
            Hashtbl.replace decls_of m ds;
            Hashtbl.replace st.modules m ();
            List.iter (fun p -> Hashtbl.replace st.modules p ()) subs;
            List.iter
              (fun dcl ->
                order := dcl :: !order;
                Hashtbl.replace st.decls dcl.key dcl)
              ds
          end)
        (sources (Filename.concat lib d)))
    libs;
  let under dir f = String.starts_with ~prefix:(Filename.concat root dir ^ Filename.dir_sep) f in
  let files =
    List.concat_map
      (fun d -> sources (Filename.concat root d))
      [ "lib"; "bin"; "bench"; "test"; "examples" ]
    |> List.filter (fun f -> not (under (Filename.concat "test" "audit") f))
    |> List.map (fun f -> (f, lex (read_file f)))
  in
  (* The audit lines of a scan of [files]: every value none of them
     refers to, and every option of a referenced value none passes. *)
  let unreferenced files =
    let st = { st with referenced = Hashtbl.create 1024; passed = Hashtbl.create 256 } in
    List.iter
      (fun (f, toks) ->
        let in_lib = under "lib" f in
        let self = if in_lib then Some (module_of_file f) else None in
        scan st ~self toks;
        (* [include M] in N.ml re-exports every [M.v] that N.mli declares. *)
        if in_lib && Filename.check_suffix f ".ml" then
          Array.iteri
            (fun i t ->
              match (t, if i + 1 < Array.length toks then Some toks.(i + 1) else None) with
              | Lid "include", Some (Uid m) when Hashtbl.mem decls_of m ->
                  List.iter
                    (fun dcl ->
                      let key = m ^ "." ^ last dcl.key in
                      if mark st ~self key then
                        List.iter (fun l -> Hashtbl.replace st.passed (key ^ " ?" ^ l) ())
                          (Hashtbl.find st.decls key).optional)
                    (Option.value ~default:[] (Option.bind self (Hashtbl.find_opt decls_of)))
              | _ -> ())
            toks)
      files;
    List.concat_map
      (fun dcl ->
        if not (Hashtbl.mem st.referenced dcl.key) then [ dcl.key ]
        else
          List.filter_map
            (fun l ->
              let line = dcl.key ^ " ?" ^ l in
              if Hashtbl.mem st.passed line then None else Some line)
            dcl.optional)
      !order
    |> List.sort_uniq compare
  in
  let everywhere = unreferenced files in
  let production = unreferenced (List.filter (fun (f, _) -> not (under "test" f)) files) in
  print_endline "# unreferenced";
  List.iter print_endline everywhere;
  print_endline "# reached only from test/";
  List.iter (fun l -> if not (List.mem l everywhere) then print_endline l) production
