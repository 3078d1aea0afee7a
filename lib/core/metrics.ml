type route_anonymity = {
  nr_avg : float;
  nr_min : int;
  nr_pairs : int;
}

module Pmap = Map.Make (struct
  type t = string * string

  let compare = compare
end)

module Rset = Set.Make (struct
  type t = string list

  let compare = compare
end)

let route_anonymity dp =
  (* Router sequence of each delivered path, grouped by (ingress, egress). *)
  let groups =
    List.fold_left
      (fun acc (_, paths) ->
        List.fold_left
          (fun acc path ->
            match Spec.Query.interior path with
            | [] -> acc
            | first :: rest as routers ->
                let last = List.fold_left (fun _ r -> r) first rest in
                Pmap.update (first, last)
                  (fun set ->
                    Some (Rset.add routers (Option.value ~default:Rset.empty set)))
                  acc)
          acc paths)
      Pmap.empty
      (Routing.Dataplane.all_delivered dp)
  in
  let counts = Pmap.fold (fun _ set acc -> Rset.cardinal set :: acc) groups [] in
  match counts with
  | [] -> { nr_avg = 0.0; nr_min = 0; nr_pairs = 0 }
  | _ ->
      {
        nr_avg =
          float_of_int (List.fold_left ( + ) 0 counts) /. float_of_int (List.length counts);
        nr_min = List.fold_left min max_int counts;
        nr_pairs = List.length counts;
      }

let kept_paths_fraction_of_pairs ~orig ~anon =
  let anon_table = Hashtbl.create (List.length anon) in
  List.iter (fun (pair, paths) -> Hashtbl.replace anon_table pair paths) anon;
  let kept, total =
    List.fold_left
      (fun (kept, total) (pair, paths0) ->
        if paths0 = [] then (kept, total)
        else
          let paths1 =
            Option.value ~default:[] (Hashtbl.find_opt anon_table pair)
          in
          let eq =
            List.equal (List.equal String.equal)
              (List.sort compare paths0) (List.sort compare paths1)
          in
          ((if eq then kept + 1 else kept), total + 1))
      (0, 0) orig
  in
  if total = 0 then 1.0 else float_of_int kept /. float_of_int total

let kept_paths_fraction ~orig ~anon ~hosts =
  let pairs dp =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun d ->
            if String.equal s d then None
            else Some ((s, d), Routing.Dataplane.paths dp ~src:s ~dst:d))
          hosts)
      hosts
  in
  kept_paths_fraction_of_pairs ~orig:(pairs orig) ~anon:(pairs anon)

type topology = {
  min_degree_group : int;
  clustering : float;
  routers : int;
  router_edges : int;
}

let topology_of_snapshot (snap : Routing.Simulate.snapshot) =
  let g = Routing.Device.router_graph snap.net in
  {
    min_degree_group = Netcore.Gmetrics.min_degree_group g;
    clustering = Netcore.Gmetrics.clustering_coefficient g;
    routers = Netcore.Graph.num_nodes g;
    router_edges = Netcore.Graph.num_edges g;
  }

let config_utility = Configlang.Count.config_utility
let line_breakdown ~orig ~anon = Configlang.Count.added ~orig ~anon
let pearson = Netcore.Gmetrics.pearson
