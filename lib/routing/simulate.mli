(** End-to-end control-plane simulation (the Batfish substitute).

    Compiles configurations, runs the protocol engines — one IGP domain
    per AS when BGP is present, a single domain otherwise — merges
    candidate routes into per-router FIBs by administrative distance, and
    exposes the data plane.

    This is the from-scratch reference path; [Routing.Engine] layers
    incremental recomputation on top of the same building blocks and is
    property-tested equivalent to it. Independent IGP domains and
    per-prefix SPF runs execute in parallel through [Netcore.Pool]
    (parallelism never changes results). *)

module Smap = Device.Smap

type snapshot = {
  net : Device.network;
  fibs : Fib.t Smap.t;
  compiled : Compiled.t;
      (** the network's compiled form, shared with data-plane extraction *)
}

val run :
  ?pool:Netcore.Pool.t ->
  Configlang.Ast.config list ->
  (snapshot, string) result

val run_exn : ?pool:Netcore.Pool.t -> Configlang.Ast.config list -> snapshot

val run_net : ?pool:Netcore.Pool.t -> Device.network -> Fib.t Smap.t
(** Protocol computation only, for callers that already compiled. *)

val dataplane : ?max_paths:int -> snapshot -> Dataplane.t

val host_routes : snapshot -> (string * Netcore.Prefix.t * string list) list
(** Flattened FIB view [(router, host prefix, sorted next-hop routers)],
    restricted to destinations that are host subnets — the
    [⟨r, h_d, nxt⟩ ∈ DP] triples iterated by Algorithm 1. *)

val host_prefixes : Device.network -> (Netcore.Prefix.t * string) list
(** [(subnet, host name)] for every host. *)

(** {1 Building blocks shared with the incremental engine} *)

val local_routes : Device.network -> Device.router -> Fib.route list
(** Connected routes, then static routes whose next hop resolves over a
    connected subnet to the router owning that address. *)

type igp_domain = {
  dom_key : [ `As of int | `Residual | `Global ];
  dom_members : string list;  (** router names, ascending *)
  dom_scope : string -> bool;  (** evaluated on router names only *)
}

val igp_domains : Device.network -> igp_domain list
(** The disjoint IGP domains of the network: one per AS plus a residual
    domain when BGP is present, a single global domain otherwise. *)

val base_fib : Fib.route list -> Fib.route list list -> Fib.t
(** [base_fib local igps] is a router's FIB before BGP: its
    {!local_routes}, then each IGP protocol's candidates in
    administrative order (OSPF, RIP, EIGRP). Equal to
    [Fib.of_candidates (local @ List.concat igps)]; the one construction
    path of both this module and the incremental engine. *)
