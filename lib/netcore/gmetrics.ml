module Sset = Graph.Sset
module Smap = Graph.Smap
module Imap = Map.Make (Int)

let degree_histogram g =
  Graph.fold_nodes
    (fun v acc ->
      let d = Graph.degree v g in
      Imap.update d (function None -> Some 1 | Some n -> Some (n + 1)) acc)
    g Imap.empty
  |> Imap.bindings

let min_degree_group g =
  match degree_histogram g with
  | [] -> 0
  | hist -> List.fold_left (fun acc (_, n) -> min acc n) max_int hist

let is_k_degree_anonymous k g =
  Graph.num_nodes g = 0 || min_degree_group g >= k

let local_clustering g v =
  let ns = Graph.neighbors v g in
  let d = Sset.cardinal ns in
  if d < 2 then 0.0
  else
    let linked =
      Sset.fold
        (fun u acc ->
          Sset.fold
            (fun w acc ->
              if String.compare u w < 0 && Graph.mem_edge u w g then acc + 1
              else acc)
            ns acc)
        ns 0
    in
    2.0 *. float_of_int linked /. float_of_int (d * (d - 1))

let clustering_coefficient g =
  let n = Graph.num_nodes g in
  if n = 0 then 0.0
  else
    let total =
      Graph.fold_nodes (fun v acc -> acc +. local_clustering g v) g 0.0
    in
    total /. float_of_int n

let bfs_distances g src =
  if not (Graph.mem_node src g) then Smap.empty
  else
    let dist = ref (Smap.singleton src 0) in
    let queue = Queue.create () in
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let du = Smap.find u !dist in
      Sset.iter
        (fun v ->
          if not (Smap.mem v !dist) then begin
            dist := Smap.add v (du + 1) !dist;
            Queue.add v queue
          end)
        (Graph.neighbors u g)
    done;
    !dist

let components g =
  let seen = ref Sset.empty in
  let comps =
    Graph.fold_nodes
      (fun v acc ->
        if Sset.mem v !seen then acc
        else begin
          let comp = List.map fst (Smap.bindings (bfs_distances g v)) in
          List.iter (fun u -> seen := Sset.add u !seen) comp;
          List.sort String.compare comp :: acc
        end)
      g []
  in
  List.sort (fun a b -> compare (List.nth_opt a 0) (List.nth_opt b 0)) comps

let connected g = List.length (components g) <= 1

let pearson samples =
  let n = List.length samples in
  if n < 2 then nan
  else
    let nf = float_of_int n in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 samples in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 samples in
    let mx = sx /. nf and my = sy /. nf in
    let cov, vx, vy =
      List.fold_left
        (fun (c, vx, vy) (x, y) ->
          let dx = x -. mx and dy = y -. my in
          (c +. (dx *. dy), vx +. (dx *. dx), vy +. (dy *. dy)))
        (0.0, 0.0, 0.0) samples
    in
    if vx = 0.0 || vy = 0.0 then nan else cov /. sqrt (vx *. vy)
