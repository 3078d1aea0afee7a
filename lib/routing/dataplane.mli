(** The data plane: forwarding DAGs per destination, host-to-host paths
    on demand.

    The data plane [DP] of ConfMask §3.1 is the collection of all
    host-to-host routing paths. A path is a hop-by-hop FIB walk (ECMP
    branches it) that enforces interface packet filters (access groups)
    at every hop; a walk is delivered, dropped (no route), filtered (ACL
    deny — a black hole in the Appendix B sense) or looping.

    Toward one destination a router forwards alike whatever the packet's
    path so far, so {!extract} stores, per destination host, each
    router's delivering next-hop set and delivered-path count — O(routers
    x hosts) entries — and the consumers below answer from those graphs:
    counts, common waypoints, path-set equality and used links are
    dynamic programs over them, and paths are enumerated only where a
    consumer asks for them. Extended ACLs read the source address, so on
    a network with packet filters there is one graph per destination and
    class of sources every filter rule treats alike. A pair whose start
    routers reach a FIB cycle, whose paths are the walk's simple paths
    rather than the graph's walks, keeps the per-pair DFS trace instead.

    Every route lookup, in {!traceroute}, {!extract} and
    {!extract_per_pair} alike, is {!Fib.probe_lookup} against the
    router's FIB, probed once per extraction. *)

module Smap = Device.Smap

type path = string list
(** [ [h_s; r_1; ...; r_n; h_d] ] *)

type trace = {
  delivered : path list;  (** sorted, deduplicated *)
  dropped : path list;  (** partial walks ending where no route exists *)
  filtered : path list;  (** partial walks stopped by an access list *)
  looped : path list;  (** partial walks that revisited a router *)
  truncated : bool;  (** enumeration hit the path cap *)
}

val max_paths_default : int

val traceroute :
  ?max_paths:int ->
  Device.network ->
  Fib.t Smap.t ->
  src:string ->
  dst:string ->
  trace
(** All forwarding paths from host [src] to host [dst], for packets with
    the hosts' addresses, by a DFS that stops after [max_paths] delivered
    walks. Raises [Invalid_argument] if either host is unknown. Compiles
    the network's interface tables once per call; callers tracing many
    pairs should use {!extract}. *)

type t
(** An extracted data plane. Immutable once built, so it may be read
    from several domains. The lazily extracted ones a
    [Confmask.Workflow.report] carries belong to the task that owns the
    report: forcing the same [Lazy.t] from two domains at once raises
    [CamlinternalLazy.Undefined] in OCaml 5. *)

val extract :
  ?max_paths:int -> compiled:Compiled.t -> Device.network -> Fib.t Smap.t -> t
(** The forwarding tables toward every host, [compiled] being the
    network's compiled core, built one destination per pool task. Pairs
    whose start routers reach a FIB cycle are traced by the DFS at
    extraction. [max_paths] caps those traces and {!trace}, never a
    count. Bumps the [dataplane.extractions] counter, adds the tables
    built to [dataplane.tables] and the DFS-traced pairs to
    [dataplane.dfs_fallback]. *)

val extract_per_pair :
  ?max_paths:int -> compiled:Compiled.t -> Device.network -> Fib.t Smap.t -> t
(** The reference extraction: every ordered pair of distinct hosts walked
    by the DFS on its own, in source-major host order, held as
    {!of_pairs}. Every consumer run on it computes from the stored path
    lists, so it is the per-pair reference the tests and the crucible
    oracles compare {!extract} against. Slow on large networks. Bumps the
    [dataplane.extractions] counter. *)

val of_pairs : (string * string, trace) Hashtbl.t -> t
(** A data plane answering exactly the given traces: the hosts are the
    pairs' endpoints, and a pair missing from the table has no path. *)

val hosts : t -> string list
(** Every host, sorted. *)

val trace : t -> src:string -> dst:string -> trace
(** The full trace of one pair: {!traceroute}'s DFS with the extraction's
    [max_paths], or the stored trace. The empty trace for [src = dst] and
    unknown hosts. *)

val paths : t -> src:string -> dst:string -> path list
(** [(trace t ~src ~dst).delivered]. *)

val all_delivered : t -> ((string * string) * path list) list
(** {!paths} of every pair with at least one, sorted by pair. *)

val path_count : t -> src:string -> dst:string -> int
(** The number of delivered paths, exact (saturating at [max_int]) for a
    pair answered from a table. *)

val first_paths :
  t -> int -> avoid:string option -> src:string -> dst:string -> path list
(** [first_paths t n ~avoid ~src ~dst]: the first [n] delivered paths in
    sorted order, leaving out those with router [avoid] on their
    interior, without enumerating the others. [first_paths t n] memoizes
    the first [n] path suffixes below each (destination, router), so
    apply it once and query many pairs. *)

val waypoints : t -> src:string -> dst:string -> string list
(** The routers on every delivered path, sorted; [[]] for none.
    [waypoints t] memoizes the routers common below each (destination,
    router), so apply it once and query many pairs. *)

val iter_hops : t -> (string -> string -> unit) -> unit
(** [iter_hops t f] calls [f u v] for every hop from router [u] to router
    [v] on a delivered path of some pair, each at least once. *)

val equal_on : hosts:string list -> t -> t -> bool
(** Whether two data planes have identical delivered path sets for every
    ordered pair of the given hosts — the route-equivalence check of
    Definition 3.3 restricted to real hosts — by comparing the delivering
    sub-graphs below each pair's start routers. *)

(** {1 Path-list references} *)

val interior : path -> string list
(** The routers of a path: all but its two end hosts. *)

val common_waypoints : path list -> string list
(** Routers on the interior of every path, sorted and deduplicated; [[]]
    for no paths. *)
