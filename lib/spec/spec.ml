type policy =
  | Reachability of string * string
  | Waypoint of string * string * string
  | Loadbalance of string * string * int

let policy_to_string = function
  | Reachability (s, d) -> Printf.sprintf "reach(%s, %s)" s d
  | Waypoint (s, d, w) -> Printf.sprintf "waypoint(%s, %s, %s)" s d w
  | Loadbalance (s, d, n) -> Printf.sprintf "loadbalance(%s, %s, %d)" s d n

let endpoints = function
  | Reachability (s, d) | Waypoint (s, d, _) | Loadbalance (s, d, _) -> (s, d)

let pair_policies (s, d) ~waypoints ~n =
  Reachability (s, d)
  :: (List.map (fun w -> Waypoint (s, d, w)) waypoints
     @ if n >= 2 then [ Loadbalance (s, d, n) ] else [])

(* The policies of every pair in [members], all of which share the path
   count and interior routers of [paths]. *)
let policies_of_members members paths =
  if paths = [] then []
  else
    let waypoints = Query.common_waypoints paths and n = List.length paths in
    List.concat_map (fun pair -> pair_policies pair ~waypoints ~n) members

let mine_paths pairs =
  List.concat_map (fun (pair, paths) -> policies_of_members [ pair ] paths) pairs
  |> List.sort_uniq compare

(* Once per class pair, on the representative's paths, mapped onto the
   members; shortcut pairs one by one. *)
let mine (dp : Routing.Dataplane.t) =
  let paths (s, d) = Routing.Dataplane.paths dp ~src:s ~dst:d in
  let classes =
    List.concat_map
      (fun (cp : Routing.Dataplane.class_pair) ->
        policies_of_members cp.members (paths cp.rep))
      dp.class_pairs
  in
  Hashtbl.fold
    (fun pair () acc -> List.rev_append (policies_of_members [ pair ] (paths pair)) acc)
    dp.shortcuts classes
  |> List.sort_uniq compare

type diff = {
  kept : policy list;
  lost : policy list;
  introduced : policy list;
}

module Pset = Set.Make (struct
  type t = policy

  let compare = compare
end)

let compare_specs ~orig ~anon =
  let anon_set = Pset.of_list anon in
  let orig_set = Pset.of_list orig in
  {
    kept = Pset.elements (Pset.inter orig_set anon_set);
    lost = Pset.elements (Pset.diff orig_set anon_set);
    introduced = Pset.elements (Pset.diff anon_set orig_set);
  }

let kept_fraction d =
  let total = List.length d.kept + List.length d.lost in
  if total = 0 then 1.0 else float_of_int (List.length d.kept) /. float_of_int total

module Query = Query

let to_query = function
  | Reachability (s, d) -> Query.Reachability (s, d)
  | Waypoint (s, d, w) -> Query.Waypoint (s, d, w)
  | Loadbalance (s, d, n) -> Query.Loadbalance (s, d, n)

let introduced_involving d ~hosts =
  List.filter
    (fun p ->
      let s, dst = endpoints p in
      not (List.mem s hosts && List.mem dst hosts))
    d.introduced
