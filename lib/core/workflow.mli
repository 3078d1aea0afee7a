(** The end-to-end ConfMask workflow (Figure 3): preprocess (simulate the
    original), anonymize the topology, fix route equivalence (Algorithm
    1), anonymize routes (Algorithm 2), and optionally run the PII
    scrubbing add-on. *)

type params = {
  k_r : int;  (** topology anonymity parameter (paper default 6) *)
  k_h : int;  (** route anonymity parameter (paper default 2) *)
  noise : float;  (** Algorithm 2 noise coefficient (paper default 0.1) *)
  seed : int;  (** all randomness derives from this seed *)
  pii : bool;  (** run the PII add-on as a final stage *)
  pii_key : Pii.Pan.key option;
      (** key of the prefix-preserving IP map; [None] derives it from
          [seed] via {!Pii.Pan.key_of_int} (the legacy, brute-forceable
          default — fine for tests, not for sharing). Real deployments
          should supply a full 64-bit key ({!Pii.Pan.key_of_string}). The
          serve daemon pins it per tenant so one tenant's address mapping
          is stable across runs and distinct from every other tenant's. *)
  fake_routers : int;
      (** §9 extension: fake routers to add before topology anonymization
          (IGP-only networks; 0 disables) *)
}

val default_params : params
(** [k_r = 6; k_h = 2; noise = 0.1; seed = 42; pii = false;
    pii_key = None; fake_routers = 0] — the paper's default evaluation
    setting. *)

type report = {
  params : params;
  orig_configs : Configlang.Ast.config list;
  anon_configs : Configlang.Ast.config list;
  orig_snapshot : Routing.Simulate.snapshot;
  anon_snapshot : Routing.Simulate.snapshot;
  fake_edges : (string * string) list;
  fake_hosts : (string * string) list;  (** (fake, real) *)
  fake_router_names : string list;  (** §9 extension; empty by default *)
  name_map : (string * string) list;
      (** node correspondence [(original, anonymized)] for every shared
          device. Empty (meaning the identity: the pipeline proper never
          renames) unless the PII add-on ran, in which case it records
          the scrub's device renaming so report consumers — the policy
          verifier above all — can map original-name queries into the
          shared namespace. Hosts whose configs were rewritten appear
          too; fake devices have no original name and are absent. *)
  equiv_iterations : int;
  equiv_filters : int;
  anon_filters_added : int;
  anon_filters_removed : int;
  orig_dataplane : Routing.Dataplane.t Lazy.t;
  anon_dataplane : Routing.Dataplane.t Lazy.t;
      (** The data planes of [orig_snapshot] and [anon_snapshot],
          extracted on first use, after {!run} has returned, and shared
          by every consumer of the report ({!functional_equivalence},
          [Verify.of_report], [Audit.of_report]). They are freed with the
          report. They belong to the task that owns the report: forcing
          one [Lazy.t] from two domains at once raises
          [CamlinternalLazy.Undefined] in OCaml 5. *)
}

val run :
  ?params:params ->
  ?cache:Netcore.Diskcache.t ->
  Configlang.Ast.config list ->
  (report, string) result
(** [cache] plugs a persistent cross-run simulation cache (see
    {!Routing.Engine.open_cache}) into the workflow's from-scratch
    simulations: the baseline runs through {!Routing.Engine.of_configs}
    (bit-identical to [Simulate.run], but restorable from disk), and so
    does the route-equivalence fixpoint's first build. The fixpoints'
    incremental edits never touch disk. Results are identical with and
    without it. *)

val run_exn :
  ?params:params ->
  ?cache:Netcore.Diskcache.t ->
  Configlang.Ast.config list ->
  report

val functional_equivalence : report -> bool
(** Definition 3.3 restricted to real hosts: identical delivered path sets
    for every ordered pair of original hosts, all original routers, hosts
    and links still present. Forces the report's data planes unless the
    PII add-on ran. *)

val real_hosts : report -> string list
val anon_texts : report -> (string * string) list
(** [(hostname, printed configuration)] for every anonymized device. *)
