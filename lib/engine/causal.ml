type id = int

let none : id = -1
let is_none i = i < 0

type info = { at : Time.t; kind : string; detail : string; parent : id }

(* A kind is a small int naming a (name, printer) pair. Program-wide
   kinds take ids below [local_base]; kinds registered on one graph
   take ids from [local_base] up, so a graph-local printer (one that
   closes over a topology) lives exactly as long as its graph. *)
type kind = int

type printer = Int of (int -> string) | Text
type kind_def = { name : string; print : printer }

let kind_bits = 8
let kind_mask = (1 lsl kind_bits) - 1
let local_base = 1 lsl (kind_bits - 1)

let globals : kind_def array ref = ref [||]

let register_global def =
  let k = Array.length !globals in
  if k >= local_base then
    invalid_arg "Causal.kind: too many program-wide kinds";
  globals := Array.append !globals [| def |];
  k

let kind name print = register_global { name; print = Int print }
let text_kind name = register_global { name; print = Text }

let pair hi lo =
  if hi < 0 || hi lsr 30 <> 0 || lo < 0 || lo lsr 32 <> 0 then
    invalid_arg (Printf.sprintf "Causal.pair: %d, %d" hi lo);
  (hi lsl 32) lor lo

let pair_hi a = a lsr 32
let pair_lo a = a land 0xFFFF_FFFF

(* Recording happens on the scheduler's hot path; reading happens after
   the run. The layout serves the writer:

   - struct-of-arrays with unboxed int columns, so appending a node is
     three array stores and zero minor-heap allocation — nothing for
     the GC to promote, and three retained words per node;
   - each column is a spine of fixed-size chunks allocated on demand
     and never copied: growth by array doubling left the dead
     generations as major-heap garbage, and that churn — not the
     stores — was the residual cost of tracing;
   - a node's detail is one int payload, formatted only when read
     ({!info}, {!chain}, {!iter}, {!hash}) by its kind's printer —
     formatting (prefixes, AS numbers) is the expensive part of a
     node, and a per-node closure was half of the graph's memory. *)

let chunk_bits = 12
let chunk = 1 lsl chunk_bits (* 4096 entries per chunk *)
let chunk_mask = chunk - 1

type t = {
  mutable at_us : int array array;
  mutable meta : int array array;  (* kind lor ((parent + 1) lsl kind_bits) *)
  mutable args : int array array;
  mutable len : int;
  max_nodes : int;
  mutable n_dropped : int;
  mutable locals : kind_def array;
  mutable texts : string array;
  mutable n_texts : int;
}

let create ?(max_nodes = 4_000_000) () =
  if max_nodes <= 0 then invalid_arg "Causal.create: max_nodes <= 0";
  {
    at_us = [||];
    meta = [||];
    args = [||];
    len = 0;
    max_nodes;
    n_dropped = 0;
    locals = [||];
    texts = [||];
    n_texts = 0;
  }

let local_kind t name print =
  let k = local_base + Array.length t.locals in
  if k > kind_mask then invalid_arg "Causal.local_kind: too many kinds";
  t.locals <- Array.append t.locals [| { name; print = Int print } |];
  k

(* A node that will be dropped keeps no text either. *)
let text t s =
  if t.len >= t.max_nodes then 0
  else begin
    let i = t.n_texts in
    if i = Array.length t.texts then begin
      let a = Array.make (max 16 (2 * i)) "" in
      Array.blit t.texts 0 a 0 i;
      t.texts <- a
    end;
    t.texts.(i) <- s;
    t.n_texts <- i + 1;
    i
  end

(* Open chunk [c] in every column, doubling the (tiny) spines as
   needed. The chunks themselves are fixed-size and live for the
   graph's whole lifetime — nothing here is ever moved or dropped. *)
let add_chunk t c =
  if c >= Array.length t.at_us then begin
    let cap' = max 8 (2 * Array.length t.at_us) in
    let extend a =
      let a' = Array.make cap' [||] in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    t.at_us <- extend t.at_us;
    t.meta <- extend t.meta;
    t.args <- extend t.args
  end;
  t.at_us.(c) <- Array.make chunk 0;
  t.meta.(c) <- Array.make chunk 0;
  t.args.(c) <- Array.make chunk 0

let node t ~at ~kind ~arg ~parent =
  if t.len >= t.max_nodes then begin
    t.n_dropped <- t.n_dropped + 1;
    none
  end
  else begin
    let i = t.len in
    let c = i lsr chunk_bits and o = i land chunk_mask in
    if o = 0 then add_chunk t c;
    (* A parent beyond the live range (dropped or foreign) degrades to
       a root rather than a dangling edge. *)
    let parent = if parent >= 0 && parent < i then parent else none in
    t.at_us.(c).(o) <- Time.to_us at;
    t.meta.(c).(o) <- kind lor ((parent + 1) lsl kind_bits);
    t.args.(c).(o) <- arg;
    t.len <- i + 1;
    i
  end

let length t = t.len
let dropped t = t.n_dropped

let parent_of t i =
  (t.meta.(i lsr chunk_bits).(i land chunk_mask) lsr kind_bits) - 1

let def_of t k =
  let defs, j =
    if k < local_base then (!globals, k) else (t.locals, k - local_base)
  in
  if j >= Array.length defs then invalid_arg "Causal: kind not registered here";
  defs.(j)

let format t def arg =
  match def.print with
  | Int print -> print arg
  | Text ->
      if arg < 0 || arg >= t.n_texts then
        invalid_arg "Causal: text index out of range";
      t.texts.(arg)

let force t i =
  let c = i lsr chunk_bits and o = i land chunk_mask in
  let m = t.meta.(c).(o) in
  let def = def_of t (m land kind_mask) in
  {
    at = Time.of_us t.at_us.(c).(o);
    kind = def.name;
    detail = format t def t.args.(c).(o);
    parent = (m lsr kind_bits) - 1;
  }

let info t i = if i >= 0 && i < t.len then Some (force t i) else None

let chain t i =
  let rec up acc i =
    if i < 0 || i >= t.len then acc else up (force t i :: acc) (parent_of t i)
  in
  up [] i

let iter ?(from = 0) t f =
  for i = max 0 from to t.len - 1 do
    f i (force t i)
  done

(* Block-chained digest: hash 64k-node blocks, feeding each block's
   digest into the next, so huge graphs never materialise one giant
   string.  Only virtual-time-deterministic fields enter, and only in
   their formatted form, so the digest does not depend on how a
   detail is packed. *)
let hash t =
  let block = 65536 in
  let buf = Buffer.create (block * 32) in
  let d = ref "" in
  let flush () =
    d := Digest.string (!d ^ Buffer.contents buf);
    Buffer.clear buf
  in
  for i = 0 to t.len - 1 do
    let n = force t i in
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf '|';
    Buffer.add_string buf (string_of_int (Time.to_us n.at));
    Buffer.add_char buf '|';
    Buffer.add_string buf n.kind;
    Buffer.add_char buf '|';
    Buffer.add_string buf n.detail;
    Buffer.add_char buf '|';
    Buffer.add_string buf (string_of_int n.parent);
    Buffer.add_char buf '\n';
    if i land (block - 1) = block - 1 then flush ()
  done;
  Buffer.add_string buf (Printf.sprintf "len=%d dropped=%d" t.len t.n_dropped);
  flush ();
  Digest.to_hex !d

let pp_chain fmt hops =
  let prev = ref None in
  List.iter
    (fun h ->
      let lat =
        match !prev with
        | None -> 0
        | Some p -> Time.to_us h.at - Time.to_us p.at
      in
      prev := Some h;
      Format.fprintf fmt "  [%.6fs] %s %s (+%dus)@."
        (Time.to_sec h.at) h.kind h.detail lat)
    hops
