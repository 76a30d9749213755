type path = Topology.link list

let path_nodes = function
  | [] -> []
  | first :: _ as links ->
      first.Topology.src :: List.map (fun l -> l.Topology.dst) links

let path_length = List.length

type tree = { src : int; dist : int array; preds : Topology.link list array }

type workspace = {
  mutable dist : int array;
  mutable stamp : int array;
  mutable queue : int array;
  mutable count : int array;
  mutable counted : int array;
  mutable epoch : int;
  mutable root : int;
  mutable head : int;
  mutable tail : int;
}

let workspace () =
  {
    dist = [||];
    stamp = [||];
    queue = [||];
    count = [||];
    counted = [||];
    epoch = 0;
    root = -1;
    head = 0;
    tail = 0;
  }

let invalidate ws = ws.root <- -1

(* A node's [dist] entry is current only while its stamp equals the
   epoch, so bumping the epoch resets the workspace without clearing
   any array. *)
let hops ws v = if ws.stamp.(v) = ws.epoch then ws.dist.(v) else max_int

(* Unit-weight BFS from [root] over usable links, kept open between
   calls: the epoch's stamps, the queue between [head] and [tail] and
   the [count] memo all belong to the search from [ws.root]. A call
   with the same root resumes it; any other root starts a new epoch.
   Either way the search runs only until [dst] is discovered ([dst =
   -1] searches the whole component): by then every node closer than
   [dst] has its final distance, and a node keeps its distance for the
   rest of the epoch. A node with one link, other than the root, is
   never queued: that link leads back to the node that found it. *)
let reach ws ~usable topo ~root ~dst =
  let n = Topology.n_nodes topo in
  if Array.length ws.dist < n then begin
    ws.dist <- Array.make n 0;
    ws.stamp <- Array.make n 0;
    ws.queue <- Array.make n 0;
    ws.count <- Array.make n 0;
    ws.counted <- Array.make n 0;
    ws.epoch <- 0;
    ws.root <- -1
  end;
  if ws.root <> root then begin
    ws.epoch <- ws.epoch + 1;
    ws.root <- root;
    ws.stamp.(root) <- ws.epoch;
    ws.dist.(root) <- 0;
    ws.queue.(0) <- root;
    ws.head <- 0;
    ws.tail <- 1
  end;
  let epoch = ws.epoch in
  while ws.head < ws.tail && (dst < 0 || ws.stamp.(dst) <> epoch) do
    let u = ws.queue.(ws.head) in
    ws.head <- ws.head + 1;
    let d = ws.dist.(u) + 1 in
    List.iter
      (fun (l : Topology.link) ->
        let v = l.Topology.dst in
        if ws.stamp.(v) <> epoch && usable l then begin
          ws.stamp.(v) <- epoch;
          ws.dist.(v) <- d;
          match Topology.out_links topo v with
          | [ _ ] -> ()
          | _ ->
              ws.queue.(ws.tail) <- v;
              ws.tail <- ws.tail + 1
        end)
      (Topology.out_links topo u)
  done

(* Calls [f] on every usable in-link of [v] whose source is one hop
   closer to the search root, in ascending link id. [add_duplex] is the
   only link constructor, so the in-links are the peers of the
   out-links; out-links come in creation order and each duplex pair
   takes two consecutive ids, so the peers ascend as well. *)
let iter_preds ~usable topo dist v f =
  let d = dist v - 1 in
  List.iter
    (fun (out : Topology.link) ->
      let l = Topology.link topo out.Topology.peer in
      if dist l.Topology.src = d && usable l then f l)
    (Topology.out_links topo v)

let default_max_paths = 64

(* Depth-first enumeration of the shortest-path DAG backward from
   [dst], at most [max_paths] paths. *)
let enumerate ~max_paths ~src ~dst iter =
  let found = ref [] in
  let count = ref 0 in
  let rec walk v suffix =
    if !count < max_paths then
      if v = src then begin
        found := suffix :: !found;
        incr count
      end
      else iter v (fun (l : Topology.link) -> walk l.Topology.src (l :: suffix))
  in
  walk dst [];
  List.rev !found

let shortest_tree topo ~src =
  let ws = workspace () in
  reach ws ~usable:(fun _ -> true) topo ~root:src ~dst:(-1);
  let dist = Array.init (Topology.n_nodes topo) (hops ws) in
  let preds = Array.make (Topology.n_nodes topo) [] in
  (* Descending link id, so consing leaves each list ascending. *)
  for id = Topology.n_links topo - 1 downto 0 do
    let l = Topology.link topo id in
    let d = dist.(l.Topology.src) in
    if d <> max_int && dist.(l.Topology.dst) = d + 1 then
      preds.(l.Topology.dst) <- l :: preds.(l.Topology.dst)
  done;
  { src; dist; preds }

let ecmp_between ~usable ws topo ~src ~dst =
  if src = dst || dst < 0 || dst >= Topology.n_nodes topo then []
  else begin
    reach ws ~usable topo ~root:src ~dst;
    if hops ws dst = max_int then []
    else
      enumerate ~max_paths:default_max_paths ~src ~dst
        (iter_preds ~usable topo (hops ws))
  end

(* Shortest paths from [root] to [v] over the open search, saturating
   at [default_max_paths]: at most that many are ever enumerated, and
   an index below the cap descends the same way whether or not a count
   is saturated. Memoised in [count] while [counted] holds the epoch;
   a count is final once [v] is discovered, so the memo serves every
   later pick from the same root. *)
let rec paths_to ws ~usable topo ~root v =
  if v = root then 1
  else if ws.counted.(v) = ws.epoch then ws.count.(v)
  else begin
    let d = hops ws v - 1 in
    let rec sum acc = function
      | [] -> acc
      | (out : Topology.link) :: rest ->
          let l = Topology.link topo out.Topology.peer in
          if hops ws l.Topology.src = d && usable l then
            let acc =
              min default_max_paths
                (acc + paths_to ws ~usable topo ~root l.Topology.src)
            in
            if acc = default_max_paths then acc else sum acc rest
          else sum acc rest
    in
    let c = sum 0 (Topology.out_links topo v) in
    ws.counted.(v) <- ws.epoch;
    ws.count.(v) <- c;
    c
  end

(* Path [i] of the backward enumeration from [v]: the in-links are
   tried in ascending id, as [iter_preds] yields them, and each one
   covers as many indices as there are paths to its source. *)
let rec nth_path ws ~usable topo ~root v i suffix =
  if v = root then suffix
  else
    let d = hops ws v - 1 in
    let rec choose i = function
      | [] -> invalid_arg "Spf.ecmp_pick: index beyond the path count"
      | (out : Topology.link) :: rest ->
          let l = Topology.link topo out.Topology.peer in
          if hops ws l.Topology.src = d && usable l then
            let c = paths_to ws ~usable topo ~root l.Topology.src in
            if i >= c then choose (i - c) rest
            else nth_path ws ~usable topo ~root l.Topology.src i (l :: suffix)
          else choose i rest
    in
    choose i (Topology.out_links topo v)

(* A source with one link reaches everything through it, so its paths
   are that uplink followed by the paths from the node at the other
   end, in the same order and under the same cap: the search is rooted
   there, and every source behind the same switch shares it. *)
let ecmp_pick ~usable ws topo ~src ~dst index =
  if src = dst || dst < 0 || dst >= Topology.n_nodes topo then None
  else
    let root, uplink =
      match Topology.out_links topo src with
      | [ up ] -> (up.Topology.dst, [ up ])
      | _ -> (src, [])
    in
    if not (List.for_all usable uplink) then None
    else begin
      reach ws ~usable topo ~root ~dst;
      if hops ws dst = max_int then None
      else
        let n = paths_to ws ~usable topo ~root dst in
        let i = index n in
        if i < 0 || i >= n then invalid_arg "Spf.ecmp_pick: index out of range";
        Some (uplink @ nth_path ws ~usable topo ~root dst i [])
    end

let distance (tree : tree) v =
  if v < 0 || v >= Array.length tree.dist || tree.dist.(v) = max_int then None
  else Some tree.dist.(v)

let first_path (tree : tree) topo ~dst =
  ignore topo;
  if dst = tree.src then Some []
  else if dst < 0 || dst >= Array.length tree.dist || tree.dist.(dst) = max_int
  then None
  else
    let rec walk v acc =
      if v = tree.src then Some acc
      else
        match tree.preds.(v) with
        | [] -> None
        | l :: _ -> walk l.Topology.src (l :: acc)
    in
    walk dst []

let ecmp_paths ?(max_paths = default_max_paths) (tree : tree) topo ~dst =
  ignore topo;
  if
    dst = tree.src || dst < 0
    || dst >= Array.length tree.dist
    || tree.dist.(dst) = max_int
  then []
  else
    enumerate ~max_paths ~src:tree.src ~dst (fun v f ->
        List.iter f tree.preds.(v))
