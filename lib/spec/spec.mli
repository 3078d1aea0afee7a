(** Network specification mining, after Config2Spec (Birkner et al.,
    NSDI 2020).

    A specification is the set of policies that hold in a network's data
    plane. As in the ConfMask evaluation (Figure 9) we mine the three
    policy families Config2Spec reports — reachability, waypointing, and
    load balancing — and diff the specification sets of the original and
    anonymized networks. *)

type policy =
  | Reachability of string * string
      (** [Reachability (src, dst)]: at least one forwarding path *)
  | Waypoint of string * string * string
      (** [Waypoint (src, dst, w)]: router [w] on every path *)
  | Loadbalance of string * string * int
      (** [Loadbalance (src, dst, n)]: traffic spreads over [n] >= 2 paths *)

val policy_to_string : policy -> string

val endpoints : policy -> string * string

val mine : Routing.Dataplane.t -> policy list
(** Mine the specification of a simulated data plane (sorted,
    deduplicated), from each pair's path count and common waypoints;
    equals {!mine_paths} over {!Routing.Dataplane.all_delivered} while no
    trace is truncated. *)

val mine_paths : ((string * string) * string list list) list -> policy list
(** Same, from explicit per-pair path sets (used for the NetHide baseline,
    whose forwarding is defined by its virtual topology rather than by a
    simulation). *)

type diff = {
  kept : policy list;  (** policies of the original that still hold *)
  lost : policy list;  (** policies of the original that disappeared *)
  introduced : policy list;  (** new policies not in the original *)
}

val compare_specs : orig:policy list -> anon:policy list -> diff

val kept_fraction : diff -> float
(** |kept| / |orig|; 1.0 for an empty original specification. *)

module Query = Query
(** The policy query language and differential verification engine
    built on top of this miner. *)

val to_query : policy -> Query.policy
(** Lift a mined policy into the query language (load balancing becomes
    the at-least-[n]-paths query, which the mined exact count
    satisfies), so mined specifications can be re-verified with
    {!Query.eval} and checked differentially with
    {!Query.differential}. *)

val introduced_involving : diff -> hosts:string list -> policy list
(** Introduced policies whose endpoints are NOT both in [hosts] — i.e.
    policies that only exist because of fake hosts (the benign kind of
    introduced specification, §7.2). *)
