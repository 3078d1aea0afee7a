(** Data-plane extraction: host-to-host paths by hop-by-hop FIB walks.

    The data plane [DP] of ConfMask §3.1 is the collection of all
    host-to-host routing paths. We enumerate them by walking the FIBs
    (ECMP produces a branching DAG), enforcing interface packet filters
    (access groups) at every hop, and reporting delivered paths plus any
    dropped (no route), filtered (ACL deny — a black hole in the Appendix
    B sense), or looping walks.

    Every route lookup of every walk, in {!traceroute}, {!extract} and
    {!extract_per_pair} alike, is {!Fib.probe_lookup} against the
    router's FIB, probed once on its first lookup. *)

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
    the hosts' addresses. Raises [Invalid_argument] if either host is
    unknown. Compiles the network's interface tables once per call;
    callers tracing many pairs should use {!extract}. *)

type class_pair = {
  rep : string * string;  (** the member whose trace was walked *)
  members : (string * string) list;
      (** every pair of the class pair, source-major, [rep] first *)
}
(** One ordered pair of forwarding-equivalence classes. Every member's
    trace is the representative's with the source renamed at the head of
    each path and, on delivered paths, the destination renamed at the
    tail: members share path counts, truncation and every interior
    router sequence. *)

type t = {
  pairs : (string * string, trace) Hashtbl.t;
      (** every ordered pair of distinct hosts, source-major insertion
          order *)
  host_class : (string, int) Hashtbl.t;  (** each host's class *)
  class_pairs : class_pair list;
      (** the ordered class pairs, in the order of their representatives;
          every pair of [pairs] belongs to exactly one of them or to
          [shortcuts] *)
  shortcuts : (string * string, unit) Hashtbl.t;
      (** same-subnet pairs, delivered directly ([ [src; dst] ]) and
          belonging to no class pair *)
}
(** The data plane: the pair table plus its FEC structure. Class-level
    consumers compute once per class pair (on [rep]'s trace) and map the
    result onto [members]; shortcut pairs are handled one by one.

    A data plane is immutable once built and may be read from several
    domains. The lazily extracted ones a [Confmask.Workflow.report]
    carries belong to the task that owns the report: forcing the same
    [Lazy.t] from two domains at once raises [CamlinternalLazy.Undefined]
    in OCaml 5. *)

val extract :
  ?max_paths:int -> compiled:Compiled.t -> Device.network -> Fib.t Smap.t -> t
(** Traces for every ordered pair of distinct hosts, [compiled] being the
    network's compiled core. Hosts are collapsed into forwarding
    equivalence classes: one representative pair per ordered class pair
    is walked and its trace renamed onto the other members (on
    filter-free networks, per-destination suffix memos replace the
    walks). The pair table equals {!extract_per_pair}'s, keys, traces and
    insertion order included. Bumps the [dataplane.extractions]
    counter. *)

val extract_per_pair :
  ?max_paths:int -> compiled:Compiled.t -> Device.network -> Fib.t Smap.t -> t
(** The reference extraction: every ordered pair of distinct hosts walked
    on its own, in source-major host order, with singleton classes (see
    {!of_pairs}). Any class-level consumer run on it is therefore its own
    per-pair reference; the tests and the crucible oracles compare
    {!extract} against it. Slow on large networks. Bumps the
    [dataplane.extractions] counter. *)

val of_pairs : (string * string, trace) Hashtbl.t -> t
(** A data plane over a given pair table with singleton classes: every
    host its own class, every pair its own class pair (and
    representative), no shortcuts. *)

val paths : t -> src:string -> dst:string -> path list

val all_delivered : t -> ((string * string) * path list) list
(** Pairs sorted lexicographically; only pairs with at least one path. *)

val class_key : t -> src:string -> dst:string -> (int * int) option
(** The ordered class pair [(class src, class dst)] the pair belongs to;
    [None] for shortcut pairs, [src = dst], and hosts the data plane does
    not know. Pairs with equal keys are members of one class pair. *)

val equal_on :
  hosts:string list -> t -> t -> bool
(** Whether two data planes have identical delivered path sets for every
    ordered pair of the given hosts — the route-equivalence check of
    Definition 3.3 restricted to real hosts. Compares one pair per joint
    class pair (the same class pair on both sides) and shortcut pairs one
    by one. *)
