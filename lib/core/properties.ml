type t =
  | Reachable of string * string
  | Path_length of string * string * int
  | Black_hole of string * string
  | Multipath_inconsistent of string * string
  | Waypointed of string * string * string
  | Routing_loop of string * string

let to_string = function
  | Reachable (s, d) -> Printf.sprintf "reachable(%s, %s)" s d
  | Path_length (s, d, l) -> Printf.sprintf "path-length(%s, %s) = %d" s d l
  | Black_hole (s, d) -> Printf.sprintf "black-hole(%s, %s)" s d
  | Multipath_inconsistent (s, d) -> Printf.sprintf "multipath-inconsistent(%s, %s)" s d
  | Waypointed (s, d, w) -> Printf.sprintf "waypoint(%s, %s, %s)" s d w
  | Routing_loop (s, d) -> Printf.sprintf "routing-loop(%s, %s)" s d

let of_trace (s, d) (t : Routing.Dataplane.trace) =
  let lossy = t.dropped <> [] || t.filtered <> [] in
  let reach = if t.delivered <> [] then [ Reachable (s, d) ] else [] in
  let lengths =
    match List.sort_uniq compare (List.map List.length t.delivered) with
    | [ l ] -> [ Path_length (s, d, l - 2) (* count routers only *) ]
    | _ -> []
  in
  let black_hole = if lossy then [ Black_hole (s, d) ] else [] in
  let inconsistent =
    if t.delivered <> [] && lossy then [ Multipath_inconsistent (s, d) ] else []
  in
  let waypoints =
    List.map (fun w -> Waypointed (s, d, w)) (Spec.Query.common_waypoints t.delivered)
  in
  let loops = if t.looped <> [] then [ Routing_loop (s, d) ] else [] in
  reach @ lengths @ black_hole @ inconsistent @ waypoints @ loops

let mine ?hosts dp =
  let keep =
    match hosts with
    | None -> fun _ -> true
    | Some hs -> fun (s, d) -> List.mem s hs && List.mem d hs
  in
  let hosts = Routing.Dataplane.hosts dp in
  List.concat_map
    (fun src ->
      List.concat_map
        (fun dst ->
          if String.equal src dst || not (keep (src, dst)) then []
          else of_trace (src, dst) (Routing.Dataplane.trace dp ~src ~dst))
        hosts)
    hosts
  |> List.sort_uniq compare

type diff = { kept : t list; lost : t list; gained : t list }

module Pset = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

let compare_properties ~hosts ~orig ~anon =
  let a = Pset.of_list (mine ~hosts orig) in
  let b = Pset.of_list (mine ~hosts anon) in
  {
    kept = Pset.elements (Pset.inter a b);
    lost = Pset.elements (Pset.diff a b);
    gained = Pset.elements (Pset.diff b a);
  }

let preserved d = d.lost = [] && d.gained = []
