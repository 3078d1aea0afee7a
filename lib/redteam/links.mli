(** Link-level attacks: identify injected (fake) router-router links in
    the shared network.

    [no_traffic_links] is the §3.2 strawman tell — links that carry no
    delivered forwarding path. [filter_links] generalizes the uniform
    deny-set fingerprint of Strawman 1 (Listing 3) with the pattern
    thresholds exposed instead of hardcoded. *)

val no_traffic_links :
  Routing.Simulate.snapshot -> Routing.Dataplane.t -> (string * string) list
(** Router links of the snapshot that no delivered path of its data plane
    crosses, canonical, in {!Netcore.Graph.edges} order: the hops
    {!Routing.Dataplane.iter_hops} reports, read until every link is
    covered. *)

val filter_links :
  ?min_prefixes:int ->
  ?min_routers:int ->
  Routing.Simulate.snapshot ->
  Configlang.Ast.config list ->
  (string * string) list
(** Links whose attachment-point deny set (IGP distribute-list or BGP
    neighbor filter) has at least [min_prefixes] prefixes (default 3) and
    occurs verbatim on at least [min_routers] distinct routers (default
    2, i.e. recurs beyond its owner). *)

val no_traffic : Attack.t
val filter_pattern : Attack.t
