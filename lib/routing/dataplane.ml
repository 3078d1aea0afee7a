module Smap = Device.Smap
module Sset = Netcore.Graph.Sset

type path = string list

type trace = {
  delivered : path list;
  dropped : path list;
  filtered : path list;
  looped : path list;
  truncated : bool;
}

let max_paths_default = 4096

let c_extractions = Netcore.Telemetry.counter "dataplane.extractions"
let c_tables = Netcore.Telemetry.counter "dataplane.tables"
let c_fallback = Netcore.Telemetry.counter "dataplane.dfs_fallback"

let acl_permits acl ~src ~dst =
  match acl with
  | None -> true
  | Some a -> Configlang.Ast.acl_permits a ~src ~dst

(* The per-hop lookups every walk runs on: the interface and arrival
   tables of a [Compiled.t], and each router's FIB probed for
   longest-prefix match. Every FIB is probed up front, so the tables are
   read-only and one extraction's tasks may share them across domains. *)
type lookups = {
  lk_iface : string -> string -> Device.iface option;
      (* router -> out-interface name -> interface *)
  lk_arrival : string -> string -> string -> Device.iface option;
      (* router -> out-interface name -> next hop -> its arrival iface *)
  lk_probe : string -> Fib.probe option;
      (* router -> its probed FIB; [None] for a router without one *)
}

let lookups c fibs =
  let probes = Hashtbl.create 256 in
  Smap.iter (fun name fib -> Hashtbl.replace probes name (Fib.probe fib)) fibs;
  {
    lk_iface = Compiled.find_iface c;
    lk_arrival = Compiled.arrival_iface c;
    lk_probe = Hashtbl.find_opt probes;
  }

let lookup_route lk router addr =
  match lk.lk_probe router with
  | None -> None
  | Some pb -> Fib.probe_lookup pb addr

(* Per-host walk inputs, hoisted so an extraction resolves each host's
   maps once instead of once per pair. [hi_starts] carries the exact
   sorted order the walk visits attachments in; [hi_datts] keeps the raw
   attachment order the delivery check scans. *)
type host_info = {
  hi_name : string;
  hi_host : Device.host;
  hi_prefix : Netcore.Prefix.t;
  hi_starts : (string * Device.iface) list;
  hi_datts : (string * Device.iface) list;
}

let host_info (net : Device.network) name =
  match Smap.find_opt name net.hosts with
  | None -> invalid_arg ("Dataplane.traceroute: unknown host " ^ name)
  | Some h ->
      let atts =
        Option.value ~default:[] (Smap.find_opt name net.attachments)
      in
      {
        hi_name = name;
        hi_host = h;
        hi_prefix = Device.host_prefix h;
        hi_starts = List.sort_uniq compare atts;
        hi_datts = atts;
      }

(* The walk itself: a DFS over the ECMP branching in next-hop list
   order, so truncation at [max_paths] always cuts the same paths. [lk]
   is lazy so the same-subnet short-circuit never pays for table
   construction. *)
let trace_hosts ?(max_paths = max_paths_default) (lk : lookups Lazy.t)
    ~(si : host_info) ~(di : host_info) =
  let src = si.hi_name and dst = di.hi_name in
  let src_addr = si.hi_host.h_addr and dst_addr = di.hi_host.h_addr in
  let permits acl = acl_permits acl ~src:src_addr ~dst:dst_addr in
  if Netcore.Prefix.equal si.hi_prefix di.hi_prefix then
    {
      delivered = [ [ src; dst ] ];
      dropped = [];
      filtered = [];
      looped = [];
      truncated = false;
    }
  else begin
    let lk = Lazy.force lk in
    let dst_attachments = di.hi_datts in
    let delivered = ref [] and dropped = ref [] and filtered = ref [] in
    let looped = ref [] in
    let count = ref 0 in
    let truncated = ref false in
    (* DFS over the ECMP branching; [rev] accumulates routers in reverse.
       [arrival] is the interface the packet arrived on at [router]. *)
    let rec walk router arrival visited rev =
      if !count >= max_paths then truncated := true
      else if
        not (permits (Option.bind arrival (fun i -> i.Device.ifc_acl_in)))
      then filtered := (src :: List.rev (router :: rev)) :: !filtered
      else if List.mem_assoc router dst_attachments then begin
        (* Delivery: the outbound filter of the host-facing interface. *)
        let out_acl =
          List.assoc_opt router dst_attachments
          |> fun o -> Option.bind o (fun i -> i.Device.ifc_acl_out)
        in
        if permits out_acl then begin
          incr count;
          delivered :=
            ((src :: List.rev (router :: rev)) @ [ dst ]) :: !delivered
        end
        else filtered := (src :: List.rev (router :: rev)) :: !filtered
      end
      else if Sset.mem router visited then
        looped := (src :: List.rev (router :: rev)) :: !looped
      else
        let visited = Sset.add router visited in
        let rev = router :: rev in
        match lookup_route lk router dst_addr with
        | None -> dropped := (src :: List.rev rev) :: !dropped
        | Some route when route.rt_nexthops = [] ->
            (* Connected route but the destination host is not attached
               here: the address does not answer. *)
            dropped := (src :: List.rev rev) :: !dropped
        | Some route ->
            List.iter
              (fun (nh : Fib.nexthop) ->
                match lk.lk_iface router nh.nh_iface with
                | Some out_iface when not (permits out_iface.ifc_acl_out) ->
                    filtered := (src :: List.rev rev) :: !filtered
                | out ->
                    ignore out;
                    walk nh.nh_router
                      (lk.lk_arrival router nh.nh_iface nh.nh_router)
                      visited rev)
              route.rt_nexthops
    in
    List.iter (fun (r, iface) -> walk r (Some iface) Sset.empty []) si.hi_starts;
    {
      delivered = List.sort_uniq compare !delivered;
      dropped = List.sort_uniq compare !dropped;
      filtered = List.sort_uniq compare !filtered;
      looped = List.sort_uniq compare !looped;
      truncated = !truncated;
    }
  end

let trace_core ?max_paths lk (net : Device.network) ~src ~dst =
  trace_hosts ?max_paths lk ~si:(host_info net src) ~di:(host_info net dst)

let traceroute ?max_paths (net : Device.network) fibs ~src ~dst =
  trace_core ?max_paths
    (lazy (lookups (Compiled.build net) fibs))
    net ~src ~dst

let empty_trace =
  { delivered = []; dropped = []; filtered = []; looped = []; truncated = false }

(* ---- path lists: the plain references ---- *)

let interior = function
  | [] -> []
  | _ :: rest ->
      let rec drop_last = function
        | [] | [ _ ] -> []
        | x :: tl -> x :: drop_last tl
      in
      drop_last rest

(* Whether [w] is an interior hop of [path], without building the
   interior. *)
let on_interior w = function
  | [] -> false
  | _ :: rest ->
      let rec go = function
        | x :: (_ :: _ as tl) -> String.equal x w || go tl
        | _ -> false
      in
      go rest

let common_waypoints = function
  | [] -> []
  | first :: others ->
      List.fold_left
        (fun cands p ->
          let on w = on_interior w p in
          if List.for_all on cands then cands else List.filter on cands)
        (interior first) others
      |> List.sort_uniq String.compare

(* ---- per-destination forwarding DAGs ----

   Toward one destination, a router's forwarding decision does not
   depend on how the packet reached it: the walk reads the router's FIB
   answer for the destination address, and filters that see only the
   two host addresses. So the delivered paths of every source are the
   walks of one graph per destination — each router's next-hop set, with
   the edges an ACL denies removed — and a pair's path set is the set of
   walks from its start routers to a router the destination attaches
   to. Packet filters also read the source address, so on a network
   with ACLs there is one graph per destination and class of sources
   that every rule's source prefix treats alike.

   Tables store, per router index, the number of delivered paths below
   it and the children that deliver any. Router indices follow name
   order, so walking children in index order enumerates paths in the
   order [List.sort_uniq compare] gives them, and deduplicating children
   by router collapses parallel links the way the per-pair walk's final
   sort does. A FIB cycle reachable from a start router makes the walk's
   simple-path semantics diverge from the graph's; those pairs keep the
   DFS trace. *)

let unvisited = -1
let visiting = -2
let cyclic = -3

type table = {
  tb_id : int;  (* unique within its data plane *)
  tb_dst : string;  (* the destination host *)
  tb_count : int array;
      (* per router: delivered paths below it (saturating), 0 for none,
         [cyclic] when a forwarding cycle is reachable from it *)
  tb_next : int array array;
      (* per router: the children with a positive count, ascending; [||]
         where the router delivers *)
}

type host = {
  ho_info : host_info;
  ho_class : int;  (* the source's ACL class: which table it walks *)
  ho_starts : (int * Device.iface) list;  (* [hi_starts], router indices *)
}

type t = {
  max_paths : int;
  lk : lookups;
  names : string array;  (* router ids of the compiled core: by name *)
  hosts : host array;  (* ascending by name *)
  host_index : (string, int) Hashtbl.t;
  tables : table array array;
      (* [tables.(d).(c)]: toward host [d], for sources of ACL class [c] *)
  acls : bool;  (* whether start interfaces must be checked per pair *)
  traced : (string * string, trace) Hashtbl.t;
      (* pairs answered by a stored trace instead of a table *)
  host_names : string list;
}

let add_sat a b = if a > max_int - b then max_int else a + b

let build_table ~id lk ~acls ~index ~names ~roots ~src_addr (di : host_info) =
  let n = Array.length names in
  let count = Array.make n unvisited and next = Array.make n [||] in
  let dst_addr = di.hi_host.h_addr in
  let permits acl = acl_permits acl ~src:src_addr ~dst:dst_addr in
  (* The index of the router [nh] leads to, unless a filter on the way
     denies the packet or the router is unknown (no FIB, so a drop). *)
  let child r (nh : Fib.nexthop) =
    let passes () =
      (match lk.lk_iface r nh.nh_iface with
      | Some out -> permits out.ifc_acl_out
      | None -> true)
      && permits
           (Option.bind
              (lk.lk_arrival r nh.nh_iface nh.nh_router)
              (fun i -> i.Device.ifc_acl_in))
    in
    if (not acls) || passes () then index nh.nh_router else None
  in
  let rec visit i =
    if count.(i) = unvisited then begin
      count.(i) <- visiting;
      let r = names.(i) in
      match List.assoc_opt r di.hi_datts with
      | Some iface -> count.(i) <- (if permits iface.ifc_acl_out then 1 else 0)
      | None -> (
          match lookup_route lk r dst_addr with
          | None | Some { Fib.rt_nexthops = []; _ } -> count.(i) <- 0
          | Some route ->
              let kids =
                List.sort_uniq Int.compare
                  (List.filter_map (child r) route.rt_nexthops)
              in
              List.iter visit kids;
              if List.exists (fun k -> count.(k) < 0) kids then count.(i) <- cyclic
              else
                let kids = List.filter (fun k -> count.(k) > 0) kids in
                count.(i) <- List.fold_left (fun a k -> add_sat a count.(k)) 0 kids;
                next.(i) <- Array.of_list kids)
    end
  in
  List.iter visit roots;
  { tb_id = id; tb_dst = di.hi_name; tb_count = count; tb_next = next }

(* A source's start routers toward [d], deduplicated: those whose
   host-facing inbound filter admits the packet. *)
let starts ~acls (s : host) (d : host) =
  let admits (_, (i : Device.iface)) =
    (not acls)
    || acl_permits i.ifc_acl_in ~src:s.ho_info.hi_host.h_addr
         ~dst:d.ho_info.hi_host.h_addr
  in
  let rec dedup = function
    | a :: (b :: _ as tl) when a = b -> dedup tl
    | a :: tl -> a :: dedup tl
    | [] -> []
  in
  dedup (List.map fst (List.filter admits s.ho_starts))

(* How every rule's source prefix treats an address: sources with equal
   signatures see every filter decide alike toward any destination. *)
let source_signature acls addr =
  List.map
    (fun (a : Configlang.Ast.acl) ->
      List.map
        (fun (r : Configlang.Ast.acl_rule) ->
          match r.acl_src with
          | None -> true
          | Some p -> Netcore.Prefix.mem addr p)
        a.acl_rules)
    acls

(* Every ACL the walks can evaluate, in a canonical order (router ifaces
   in map order, inbound then outbound, then attachment ifaces). *)
let enumerate_acls (net : Device.network) =
  let of_iface (i : Device.iface) acc =
    let acc = match i.ifc_acl_out with Some a -> a :: acc | None -> acc in
    match i.ifc_acl_in with Some a -> a :: acc | None -> acc
  in
  let acc =
    Smap.fold
      (fun _ (r : Device.router) acc ->
        List.fold_left (fun acc i -> of_iface i acc) acc r.r_ifaces)
      net.routers []
  in
  Smap.fold
    (fun _ atts acc ->
      List.fold_left (fun acc (_, i) -> of_iface i acc) acc atts)
    net.attachments acc
  |> List.rev

let extract ?(max_paths = max_paths_default) ~compiled (net : Device.network)
    fibs =
  let lk = lookups compiled fibs in
  let routers = Compiled.routers compiled in
  let names = Array.init (Netcore.Interner.length routers) (Netcore.Interner.name routers) in
  let index = Netcore.Interner.find routers in
  let acl_list = enumerate_acls net in
  let acls = acl_list <> [] in
  (* ACL classes in first-seen host order, each with the address of its
     first member to evaluate filters with. *)
  let classes = Hashtbl.create 8 and reps = ref [] in
  let hosts =
    Smap.bindings net.hosts
    |> List.map (fun (name, _) ->
           let hi = host_info net name in
           let signature = source_signature acl_list hi.hi_host.h_addr in
           let ho_class =
             match Hashtbl.find_opt classes signature with
             | Some c -> c
             | None ->
                 let c = Hashtbl.length classes in
                 Hashtbl.add classes signature c;
                 reps := hi.hi_host.h_addr :: !reps;
                 c
           in
           let ho_starts =
             List.map (fun (r, i) -> (Option.get (index r), i)) hi.hi_starts
           in
           { ho_info = hi; ho_class; ho_starts })
    |> Array.of_list
  in
  let reps = Array.of_list (List.rev !reps) in
  let roots =
    Array.fold_left
      (fun acc h -> List.rev_append (List.map fst h.ho_starts) acc)
      [] hosts
    |> List.sort_uniq Int.compare
  in
  let nc = Array.length reps in
  let per_dst =
    Netcore.Pool.chunked_map
      (fun di ->
        let d = hosts.(di) in
        let tables =
          Array.init nc (fun c ->
              build_table ~id:((di * nc) + c) lk ~acls ~index ~names ~roots
                ~src_addr:reps.(c) d.ho_info)
        in
        let fallbacks =
          if not (Array.exists (fun tb -> Array.mem cyclic tb.tb_count) tables)
          then []
          else
            Array.to_list hosts
            |> List.filter_map (fun s ->
                   let count = tables.(s.ho_class).tb_count in
                   if
                     s != d
                     && (not
                           (Netcore.Prefix.equal s.ho_info.hi_prefix
                              d.ho_info.hi_prefix))
                     && List.exists (fun r -> count.(r) = cyclic) (starts ~acls s d)
                   then
                     Some
                       ( (s.ho_info.hi_name, d.ho_info.hi_name),
                         trace_hosts ~max_paths (Lazy.from_val lk) ~si:s.ho_info
                           ~di:d.ho_info )
                   else None)
        in
        (tables, fallbacks))
      (List.init (Array.length hosts) Fun.id)
  in
  let traced = Hashtbl.create 16 in
  List.iter
    (fun (_, fallbacks) ->
      List.iter (fun (pair, t) -> Hashtbl.replace traced pair t) fallbacks)
    per_dst;
  let host_index = Hashtbl.create (Array.length hosts) in
  Array.iteri (fun i h -> Hashtbl.replace host_index h.ho_info.hi_name i) hosts;
  Netcore.Telemetry.add c_tables (Array.length hosts * nc);
  Netcore.Telemetry.add c_fallback (Hashtbl.length traced);
  Netcore.Telemetry.incr c_extractions;
  {
    max_paths;
    lk;
    names;
    hosts;
    host_index;
    tables = Array.of_list (List.map fst per_dst);
    acls;
    traced;
    host_names = Array.to_list (Array.map (fun h -> h.ho_info.hi_name) hosts);
  }

let of_pairs traced =
  let host_names =
    Hashtbl.fold (fun (s, d) _ acc -> s :: d :: acc) traced []
    |> List.sort_uniq String.compare
  in
  {
    max_paths = max_paths_default;
    lk =
      {
        lk_iface = (fun _ _ -> None);
        lk_arrival = (fun _ _ _ -> None);
        lk_probe = (fun _ -> None);
      };
    names = [||];
    hosts = [||];
    host_index = Hashtbl.create 1;
    tables = [||];
    acls = false;
    traced;
    host_names;
  }

(* The reference extraction: every ordered pair walked on its own. *)
let extract_per_pair ?(max_paths = max_paths_default) ~compiled
    (net : Device.network) fibs =
  let lk = lazy (lookups compiled fibs) in
  let hosts = List.map fst (Smap.bindings net.hosts) in
  let dp = Hashtbl.create (List.length hosts * List.length hosts) in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if not (String.equal src dst) then
            Hashtbl.replace dp (src, dst) (trace_core ~max_paths lk net ~src ~dst))
        hosts)
    hosts;
  Netcore.Telemetry.incr c_extractions;
  of_pairs dp

let hosts dp = dp.host_names

(* ---- per-pair answers ---- *)

type view =
  | Dag of table * int list  (* the pair's table and delivering starts *)
  | Listed of path list  (* the delivered paths, sorted *)

let view dp ~src ~dst =
  match Hashtbl.find_opt dp.traced (src, dst) with
  | Some t -> Listed t.delivered
  | None -> (
      match
        (Hashtbl.find_opt dp.host_index src, Hashtbl.find_opt dp.host_index dst)
      with
      | Some si, Some di when si <> di ->
          let s = dp.hosts.(si) and d = dp.hosts.(di) in
          if Netcore.Prefix.equal s.ho_info.hi_prefix d.ho_info.hi_prefix then
            Listed [ [ src; dst ] ]
          else
            let tb = dp.tables.(di).(s.ho_class) in
            Dag (tb, List.filter (fun r -> tb.tb_count.(r) > 0) (starts ~acls:dp.acls s d))
      | _ -> Listed [])

let trace dp ~src ~dst =
  match Hashtbl.find_opt dp.traced (src, dst) with
  | Some t -> t
  | None -> (
      match
        (Hashtbl.find_opt dp.host_index src, Hashtbl.find_opt dp.host_index dst)
      with
      | Some si, Some di when si <> di ->
          trace_hosts ~max_paths:dp.max_paths (Lazy.from_val dp.lk)
            ~si:dp.hosts.(si).ho_info ~di:dp.hosts.(di).ho_info
      | _ -> empty_trace)

let paths dp ~src ~dst = (trace dp ~src ~dst).delivered

let all_delivered dp =
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          if String.equal src dst then None
          else
            match paths dp ~src ~dst with
            | [] -> None
            | ps -> Some ((src, dst), ps))
        dp.host_names)
    dp.host_names

let path_count dp ~src ~dst =
  match view dp ~src ~dst with
  | Listed ps -> List.length ps
  | Dag (tb, starts) -> List.fold_left (fun a r -> add_sat a tb.tb_count.(r)) 0 starts

(* The first [n] of [List.concat_map (fun k -> List.map (List.cons x)
   (sub k)) ks], computing [sub] only as far as needed. *)
let prefix_each n x sub ks =
  let rec add n acc = function
    | s :: tl when n > 0 -> add (n - 1) ((x :: s) :: acc) tl
    | _ -> (n, acc)
  in
  let rec go n acc = function
    | k :: ks when n > 0 ->
        let n, acc = add n acc (sub k) in
        go n acc ks
    | _ -> List.rev acc
  in
  go n [] ks

(* On a table, the first [n] suffixes below a router are its name on the
   first [n] suffixes of its children in name order: sorted, because
   suffixes below distinct children differ in their first router. They
   are memoized per (destination, router, avoided router) and share
   their tails, so a pair's paths cost one cell each. *)
let first_paths dp n =
  let memo = Hashtbl.create 256 in
  let size = Array.length dp.names in
  let rec below avoid tb i =
    let key = ((tb.tb_id * size) + i, avoid) in
    match Hashtbl.find_opt memo key with
    | Some l -> l
    | None ->
        let r = dp.names.(i) in
        let l =
          match (avoid, tb.tb_next.(i)) with
          | Some w, _ when String.equal w r -> []
          | _, [||] -> [ [ r; tb.tb_dst ] ]
          | _, kids -> prefix_each n r (below avoid tb) (Array.to_list kids)
        in
        Hashtbl.add memo key l;
        l
  in
  fun ~avoid ~src ~dst ->
    match view dp ~src ~dst with
    | Listed ps ->
        let keep p = match avoid with None -> true | Some w -> not (on_interior w p) in
        let rec go n acc = function
          | p :: tl when n > 0 ->
              if keep p then go (n - 1) (p :: acc) tl else go n acc tl
          | _ -> List.rev acc
        in
        go n [] ps
    | Dag (tb, starts) -> prefix_each n src (below avoid tb) starts

let waypoints dp =
  let memo = Hashtbl.create 256 in
  let n = Array.length dp.names in
  let rec below tb i =
    let key = (tb.tb_id * n) + i in
    match Hashtbl.find_opt memo key with
    | Some s -> s
    | None ->
        let s =
          match tb.tb_next.(i) with
          | [||] -> Sset.singleton dp.names.(i)
          | kids ->
              let common = ref (below tb kids.(0)) in
              for k = 1 to Array.length kids - 1 do
                common := Sset.inter !common (below tb kids.(k))
              done;
              Sset.add dp.names.(i) !common
        in
        Hashtbl.add memo key s;
        s
  in
  fun ~src ~dst ->
    match view dp ~src ~dst with
    | Listed ps -> common_waypoints ps
    | Dag (_, []) -> []
    | Dag (tb, r :: rs) ->
        Sset.elements
          (List.fold_left (fun acc r -> Sset.inter acc (below tb r)) (below tb r) rs)

let iter_hops dp f =
  let hops = function
    | [] -> ()
    | _ :: rest ->
        let rec go = function
          | u :: (v :: _ :: _ as tl) ->
              f u v;
              go tl
          | _ -> ()
        in
        go rest
  in
  Hashtbl.iter (fun _ t -> List.iter hops t.delivered) dp.traced;
  let seen = Array.make (Array.length dp.names) (-1) in
  Array.iter
    (fun (d : host) ->
      let dst = d.ho_info.hi_name in
      Array.iter
        (fun (s : host) ->
          match view dp ~src:s.ho_info.hi_name ~dst with
          | Listed _ -> ()
          | Dag (tb, starts) ->
              let rec go i =
                if seen.(i) <> tb.tb_id then begin
                  seen.(i) <- tb.tb_id;
                  Array.iter
                    (fun k ->
                      f dp.names.(i) dp.names.(k);
                      go k)
                    tb.tb_next.(i)
                end
              in
              List.iter go starts)
        dp.hosts)
    dp.hosts

(* Two routers of the same name, one per side, have equal path sets
   below them exactly when they deliver alike and their delivering
   children agree by name and, recursively, below: paths below distinct
   children differ in their second router. *)
let equal_on ~hosts a b =
  let memo = Hashtbl.create 256 in
  let all_a = first_paths a max_int and all_b = first_paths b max_int in
  let rec same ta i tb j =
    ta.tb_count.(i) = tb.tb_count.(j)
    &&
    let ka = ta.tb_next.(i) and kb = tb.tb_next.(j) in
    Array.length ka = Array.length kb
    && (Array.length ka = 0
       ||
       let key = (ta.tb_id, tb.tb_id, i) in
       match Hashtbl.find_opt memo key with
       | Some r -> r
       | None ->
           let r = Array.for_all2 (fun x y -> both ta x tb y) ka kb in
           Hashtbl.add memo key r;
           r)
  and both ta i tb j = String.equal a.names.(i) b.names.(j) && same ta i tb j in
  List.for_all
    (fun src ->
      List.for_all
        (fun dst ->
          String.equal src dst
          ||
          match (view a ~src ~dst, view b ~src ~dst) with
          | Dag (ta, sa), Dag (tb, sb) ->
              List.equal (fun i j -> both ta i tb j) sa sb
          | _ ->
              List.equal (List.equal String.equal)
                (all_a ~avoid:None ~src ~dst)
                (all_b ~avoid:None ~src ~dst))
        hosts)
    hosts
