type score = {
  flagged : (string * string) list;
  true_positives : int;
  precision : float;
  recall : float;
}

let canonical = Redteam.Attack.canonical_edge

(* The attacks themselves live in lib/redteam now; this module keeps the
   original two-attack surface (and its tests) as a thin façade. *)
let no_traffic_links snap =
  Redteam.Links.no_traffic_links snap (Routing.Simulate.dataplane snap)

let uniform_filter_links snap configs =
  Redteam.Links.filter_links ~min_prefixes:3 ~min_routers:2 snap configs

let assess ~fake_edges ~flagged =
  let fake_edges = List.sort_uniq compare (List.map canonical fake_edges) in
  let flagged = List.sort_uniq compare (List.map canonical flagged) in
  (* Both lists are sorted and deduplicated, so the intersection is a
     linear merge — the old [List.mem] filter was O(F * P) and dominated
     on grid-scale networks with thousands of flagged edges. *)
  let true_positives =
    Redteam.Attack.edge_hits ~truth:fake_edges ~claimed:flagged
  in
  let precision =
    if flagged = [] then 1.0
    else float_of_int true_positives /. float_of_int (List.length flagged)
  in
  let recall =
    if fake_edges = [] then 1.0
    else float_of_int true_positives /. float_of_int (List.length fake_edges)
  in
  { flagged; true_positives; precision; recall }
