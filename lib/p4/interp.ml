type key_match =
  | K_exact of int
  | K_lpm of int * int
  | K_ternary of int * int

type entry = {
  e_table : string;
  key : key_match list;
  priority : int;
  action : string;
  args : int list;
}

let key_match_equal a b =
  match (a, b) with
  | K_exact x, K_exact y -> x = y
  | K_lpm (v, l), K_lpm (v', l') -> v = v' && l = l'
  | K_ternary (v, m), K_ternary (v', m') -> v = v' && m = m'
  | (K_exact _ | K_lpm _ | K_ternary _), _ -> false

let entry_key_equal = List.equal key_match_equal

type stored = { entry : entry; seq : int }

type t = {
  prog : Prog.t;
  tables : (string, stored list ref) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
  mutable next_seq : int;
}


let create prog =
  match Prog.validate prog with
  | Error _ as e -> e
  | Ok () ->
      let t =
        {
          prog;
          tables = Hashtbl.create 8;
          counters = Hashtbl.create 8;
          next_seq = 0;
        }
      in
      List.iter
        (fun (tb : Prog.table_def) ->
          Hashtbl.replace t.tables tb.Prog.table_name (ref []))
        prog.Prog.tables;
      List.iter (fun c -> Hashtbl.replace t.counters c (ref 0)) prog.Prog.counters;
      Ok t

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let mask_of_width w = (1 lsl w) - 1

let check_key (tb : Prog.table_def) prog key =
  if List.length key <> List.length tb.Prog.keys then
    err "p4: entry key arity mismatch for table %s" tb.Prog.table_name
  else
    List.fold_left2
      (fun acc (field, kind) k ->
        Result.bind acc (fun () ->
            let width =
              Option.value (Prog.field_width prog field) ~default:0
            in
            match ((kind : Prog.match_kind), k) with
            | Prog.Exact, K_exact _ -> Ok ()
            | Prog.Lpm, K_lpm (_, len) when len >= 0 && len <= width -> Ok ()
            | Prog.Lpm, K_lpm _ -> err "p4: LPM length out of range"
            | Prog.Ternary, K_ternary _ -> Ok ()
            | Prog.Exact, (K_lpm _ | K_ternary _)
            | Prog.Lpm, (K_exact _ | K_ternary _)
            | Prog.Ternary, (K_exact _ | K_lpm _) ->
                err "p4: key kind mismatch in table %s" tb.Prog.table_name))
      (Ok ()) tb.Prog.keys key

let insert t entry =
  match Prog.find_table t.prog entry.e_table with
  | None -> err "p4: unknown table %s" entry.e_table
  | Some tb -> (
      match check_key tb t.prog entry.key with
      | Error _ as e -> e
      | Ok () ->
          if not (List.mem entry.action tb.Prog.action_refs) then
            err "p4: action %s not permitted in table %s" entry.action
              entry.e_table
          else (
            match Prog.find_action t.prog entry.action with
            | None -> err "p4: unknown action %s" entry.action
            | Some a when List.length a.Prog.params <> List.length entry.args ->
                err "p4: action %s arity mismatch" entry.action
            | Some _ ->
                let store = Hashtbl.find t.tables entry.e_table in
                store :=
                  List.filter
                    (fun s -> not (entry_key_equal s.entry.key entry.key))
                    !store;
                store := { entry; seq = t.next_seq } :: !store;
                t.next_seq <- t.next_seq + 1;
                Ok ()))

let delete t ~table ~key =
  match Hashtbl.find_opt t.tables table with
  | None -> false
  | Some store ->
      let before = List.length !store in
      store := List.filter (fun s -> not (entry_key_equal s.entry.key key)) !store;
      List.length !store < before

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> !r
  | None -> invalid_arg (Printf.sprintf "Interp.counter: unknown counter %s" name)

type outcome = Forwarded of int | Dropped

(* Deterministic field hashing (splitmix64 chain), independent of the
   host's polymorphic hash. *)
let hash_values values =
  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let acc =
    List.fold_left
      (fun acc v -> mix (Int64.logxor acc (Int64.of_int (v + 0x9E37))))
      0x5EEDL values
  in
  Int64.to_int acc land max_int

type run_state = {
  meta : (string, int) Hashtbl.t;
  mutable egress : int option;
  mutable dropped : bool;
}

let read st field = Option.value (Hashtbl.find_opt st.meta field) ~default:0

let rec eval t st ~args e =
  match (e : Prog.expr) with
  | Prog.Const n -> n
  | Prog.Field f -> read st f
  | Prog.Param p -> Option.value (List.assoc_opt p args) ~default:0
  | Prog.Add (a, b) -> eval t st ~args a + eval t st ~args b
  | Prog.Xor (a, b) -> eval t st ~args a lxor eval t st ~args b
  | Prog.Mod (a, b) ->
      let d = eval t st ~args b in
      if d = 0 then 0 else eval t st ~args a mod d
  | Prog.Hash fields -> hash_values (List.map (read st) fields)

let run_stmt t st ~args = function
  | Prog.Set_field (f, e) ->
      let width = Option.value (Prog.field_width t.prog f) ~default:62 in
      Hashtbl.replace st.meta f (eval t st ~args e land mask_of_width width)
  | Prog.Drop -> st.dropped <- true
  | Prog.Forward e -> st.egress <- Some (eval t st ~args e)
  | Prog.Count c -> (
      match Hashtbl.find_opt t.counters c with
      | Some r -> incr r
      | None -> ())

let run_action t st name args =
  match Prog.find_action t.prog name with
  | None -> ()
  | Some a ->
      let bound = List.combine (List.map fst a.Prog.params) args in
      List.iter (fun s -> run_stmt t st ~args:bound s) a.Prog.body

(* Matching: all keys must match; scoring prefers longer LPM prefixes,
   then higher priority, then older entries. *)
let match_entry t st (tb : Prog.table_def) (s : stored) =
  let ok =
    List.for_all2
      (fun (field, _) k ->
        let v = read st field in
        let width = Option.value (Prog.field_width t.prog field) ~default:62 in
        match k with
        | K_exact x -> v = x
        | K_lpm (x, len) ->
            let shift = width - len in
            len = 0 || v lsr shift = x lsr shift
        | K_ternary (x, m) -> v land m = x land m)
      tb.Prog.keys s.entry.key
  in
  if not ok then None
  else
    let lpm_score =
      List.fold_left
        (fun acc k -> match k with K_lpm (_, len) -> acc + len | K_exact _ | K_ternary _ -> acc)
        0 s.entry.key
    in
    Some (lpm_score, s.entry.priority, -s.seq)

let apply_table t st name =
  match (Prog.find_table t.prog name, Hashtbl.find_opt t.tables name) with
  | Some tb, Some store ->
      let best =
        List.fold_left
          (fun best s ->
            match match_entry t st tb s with
            | None -> best
            | Some score -> (
                match best with
                | Some (bscore, _) when bscore >= score -> best
                | Some _ | None -> Some (score, s.entry)))
          None !store
      in
      (match best with
      | Some (_, entry) -> run_action t st entry.action entry.args
      | None ->
          let name, args = tb.Prog.default_action in
          run_action t st name args)
  | (None | Some _), _ -> ()

let rec run_control t st = function
  | Prog.Nop -> ()
  | Prog.Apply name -> apply_table t st name
  | Prog.Seq cs -> List.iter (run_control t st) cs
  | Prog.If (cond, yes, no) ->
      if eval t st ~args:[] cond <> 0 then run_control t st yes
      else run_control t st no

let exec t initial =
  let st = { meta = Hashtbl.create 16; egress = None; dropped = false } in
  List.iter
    (fun (f, v) ->
      match Prog.field_width t.prog f with
      | Some w -> Hashtbl.replace st.meta f (v land mask_of_width w)
      | None -> ())
    initial;
  run_control t st t.prog.Prog.pipeline;
  if st.dropped then Dropped
  else match st.egress with Some port -> Forwarded port | None -> Dropped
