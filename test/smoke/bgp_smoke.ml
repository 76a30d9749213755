(* Control-plane performance smoke: a leaf-spine fabric of raw BGP
   speakers where each leaf originates a block of prefixes.  With
   update groups, packed UPDATEs and end-of-instant flush coalescing,
   the prefixes-per-UPDATE packing ratio must stay high; if flushes
   degrade back toward one prefix per message this exits non-zero and
   fails @bench-smoke (and @runtest with it). A second budget caps the
   minor-heap words the run allocates per announced prefix, so a
   receive, decision or flush path that starts boxing or hashing per
   prefix again fails too. A session reset then checks attribute
   lifetimes: the live-record gauge must equal the attribute table the
   speakers share, and every live record must have a holder. The
   budgets count work, not wall time.

   Writes the run's full telemetry snapshot to the path given as
   argv(1), in the same JSON shape as results/BENCH_*.json. *)

open Horse_net
open Horse_engine
open Horse_emulation
open Horse_bgp
module Registry = Horse_telemetry.Registry

let leaves = 6
let spines = 2
let prefixes_per_leaf = 100

(* Minor-heap words allocated inside [Sched.run] per prefix announced
   in a sent UPDATE. The UPDATE path measured 471.7 with result-boxed
   decoding and hashed RIB tables, and 157.1 with the direct decoder
   and the id-indexed RIB. *)
let words_per_prefix_budget = 250.0

let leaf_prefix l j =
  (* Distinct /24s from 10.0.0.0, indexed densely. *)
  Prefix.make
    (Ipv4.of_int32
       (Int32.of_int (0x0A000000 lor (((l * prefixes_per_leaf) + j) lsl 8))))
    24

let () =
  let out = Sys.argv.(1) in
  let sched = Sched.create () in
  let intern = Speaker.attr_table sched in
  let mk asn id_octet networks =
    Speaker.create ~intern
      (Process.create sched)
      {
        (Speaker.default_config ~asn ~router_id:(Ipv4.of_octets 1 0 0 id_octet)) with
        Speaker.networks;
        hold_time = Time.of_sec 90.0;
      }
  in
  let spine_arr =
    Array.init spines (fun s -> mk (64500 + s) (s + 1) [])
  in
  let leaf_arr =
    Array.init leaves (fun l ->
        mk (64600 + l) (100 + l) (List.init prefixes_per_leaf (leaf_prefix l)))
  in
  Array.iter
    (fun leaf ->
      Array.iter
        (fun spine ->
          let chan = Channel.create sched () in
          let el, es = Channel.endpoints chan in
          ignore (Speaker.add_peer leaf ~remote_asn:(Speaker.asn spine) el);
          ignore (Speaker.add_peer spine ~remote_asn:(Speaker.asn leaf) es))
        spine_arr)
    leaf_arr;
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Array.iter Speaker.start spine_arr;
         Array.iter Speaker.start leaf_arr));
  let words_before = Gc.minor_words () in
  ignore (Sched.run ~until:(Time.of_sec 60.0) sched);
  let run_words = Gc.minor_words () -. words_before in
  let total = leaves * prefixes_per_leaf in
  Array.iteri
    (fun l leaf ->
      let n = List.length (Speaker.routes leaf) in
      if n <> total then begin
        Printf.eprintf "bgp-smoke: leaf%d holds %d/%d prefixes\n" l n total;
        exit 1
      end)
    leaf_arr;
  (* Every speaker has one export policy (accept-all): one group each. *)
  Array.iter
    (fun s ->
      if Speaker.update_group_count s <> 1 then begin
        Printf.eprintf "bgp-smoke: expected a single update group per spine\n";
        exit 1
      end)
    spine_arr;
  let reg = Sched.registry sched in
  let counter name =
    match Registry.find_counter reg name with
    | Some c -> Registry.Counter.value c
    | None -> failwith ("bgp-smoke: counter not registered: " ^ name)
  in
  let updates = counter "horse_bgp_updates_sent_total" in
  let prefixes = counter "horse_bgp_prefixes_sent_total" in
  let intern_hits = counter "horse_bgp_attr_intern_hits_total" in
  let oc = open_out out in
  output_string oc
    (Horse_telemetry.Json.to_string (Horse_telemetry.Export.json reg));
  output_char oc '\n';
  close_out oc;
  let ratio = float_of_int prefixes /. float_of_int (max 1 updates) in
  let words_per_prefix = run_words /. float_of_int (max 1 prefixes) in
  Printf.printf
    "bgp-smoke: %d prefixes announced in %d UPDATEs (%.1f per message), %d \
     intern hits, %.1f minor words per prefix (budget %.0f)\n"
    prefixes updates ratio intern_hits words_per_prefix words_per_prefix_budget;
  if updates = 0 || prefixes < total then begin
    Printf.eprintf "bgp-smoke: implausible counters (updates=%d, prefixes=%d)\n"
      updates prefixes;
    exit 1
  end;
  (* Packing budget: announcements must average >= 8 prefixes per
     UPDATE across the whole convergence. *)
  if ratio < 8.0 then begin
    Printf.eprintf
      "bgp-smoke: packing budget exceeded: %d prefixes over %d UPDATEs \
       (want >= 8 per message)\n"
      prefixes updates;
    exit 1
  end;
  (* Hash-consing must be doing work: repeated attribute records
     (every leaf's block shares one) resolve to existing entries. *)
  if intern_hits = 0 then begin
    Printf.eprintf "bgp-smoke: attribute interning saw no hits\n";
    exit 1
  end;
  if words_per_prefix > words_per_prefix_budget then begin
    Printf.eprintf
      "bgp-smoke: allocation budget exceeded: %.1f minor words per announced \
       prefix (budget %.0f)\n"
      words_per_prefix words_per_prefix_budget;
    exit 1
  end;
  (* Attribute lifetimes. The live gauge must equal the shared table's
     size, and every live record must have a holder: a RIB route, or
     an export-memo entry (one per update group) on a live record. The
     table keeps at most the records RIB routes hold plus, for each
     speaker, its groups times the records its RIB holds: the sum of
     the (1 + groups) x held bounds the speakers' own tables kept, with
     each RIB-held record counted once. The holder audit then counts
     every record's holders exactly. A session reset makes the fabric
     explore longer paths and withdraw them again; the memo entries
     that exported them keep them, and the gates must still hold. *)
  let speakers = Array.append spine_arr leaf_arr in
  let ribs = Array.to_list (Array.map Speaker.rib speakers) in
  let all_prefixes =
    List.concat
      (List.init leaves (fun l -> List.init prefixes_per_leaf (leaf_prefix l)))
  in
  let live () =
    match Registry.find_gauge reg "horse_bgp_attrs_live" with
    | Some g -> int_of_float (Registry.Gauge.value g)
    | None -> failwith "bgp-smoke: gauge not registered: horse_bgp_attrs_live"
  in
  (* The distinct records the RIBs hold. *)
  let rib_held ribs =
    let uids = Hashtbl.create 64 in
    List.iter
      (fun rib ->
        List.iter
          (fun prefix ->
            List.iter
              (fun (r : Rib.route) ->
                Hashtbl.replace uids r.Rib.iattrs.Attr_intern.uid ())
              (Rib.candidates rib prefix @ Rib.best rib prefix))
          all_prefixes)
      ribs;
    Hashtbl.length uids
  in
  let check_tables when_ =
    let intern = Rib.intern_table (List.hd ribs) in
    let size = Attr_intern.size intern in
    let bound =
      Array.fold_left
        (fun n s ->
          n + (Speaker.update_group_count s * rib_held [ Speaker.rib s ]))
        (rib_held ribs) speakers
    in
    if size > bound then begin
      Printf.eprintf
        "bgp-smoke: %s: the shared table keeps %d attribute records, at \
         most %d have a holder\n"
        when_ size bound;
      exit 1
    end;
    if live () <> size then begin
      Printf.eprintf
        "bgp-smoke: %s: horse_bgp_attrs_live reads %d, the shared table \
         holds %d records\n"
        when_ (live ()) size;
      exit 1
    end;
    match Horse_test_support.attr_holder_audit intern ribs all_prefixes with
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "bgp-smoke: %s: holder audit: %s\n" when_ e;
        exit 1
  in
  check_tables "converged";
  let converged_live = live () in
  let inserted = counter "horse_bgp_attrs_interned_total" in
  ignore
    (Sched.schedule_at sched (Time.of_sec 61.0) (fun () ->
         Speaker.reset_session leaf_arr.(0) 0));
  ignore (Sched.run ~until:(Time.of_sec 90.0) sched);
  check_tables "after the reset";
  let reinserted = counter "horse_bgp_attrs_interned_total" - inserted in
  Printf.printf
    "bgp-smoke: %d path-attribute records live after convergence, %d after \
     a session reset that inserted %d\n"
    converged_live (live ()) reinserted;
  if reinserted = 0 then begin
    Printf.eprintf "bgp-smoke: the session reset inserted no attribute record\n";
    exit 1
  end
