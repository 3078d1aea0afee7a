(** Graph metrics and traversals used by the evaluation.

    These implement the topology-side measurements of ConfMask §7.1:
    k-degree anonymity (Definition 3.1) and the clustering coefficient
    (Figure 7), plus the traversal primitives shared by the generators and
    the anonymization algorithms. *)

val degree_histogram : Graph.t -> (int * int) list
(** [(degree, how many nodes have it)], sorted by degree. *)

val min_degree_group : Graph.t -> int
(** Minimum number of nodes sharing the same degree — the k of Figure 6.
    0 for the empty graph. *)

val is_k_degree_anonymous : int -> Graph.t -> bool
(** Whether every degree class has at least [k] members (Definition 3.1). *)

val local_clustering : Graph.t -> string -> float
(** Fraction of a node's neighbor pairs that are themselves adjacent; 0 for
    nodes of degree < 2. *)

val clustering_coefficient : Graph.t -> float
(** Average local clustering coefficient over all nodes (Watts-Strogatz),
    the utility metric of Figure 7. 0 for the empty graph. *)

val bfs_distances : Graph.t -> string -> int Graph.Smap.t
(** Unweighted hop distances from a source; unreachable nodes are absent. *)

val connected : Graph.t -> bool
(** Whether the graph has at most one connected component. *)

val components : Graph.t -> string list list
(** Connected components, each sorted; components sorted by first member. *)

val pearson : (float * float) list -> float
(** Pearson correlation coefficient of a sample (Figure 15). [nan] when
    either marginal is constant or the sample has < 2 points. *)
