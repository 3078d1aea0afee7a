(** The crucible's oracle suite: checks every generated network must pass.

    Each oracle is a named total check over a {!Netgen.Netspec.t}; {!run}
    converts any escaping exception into a {!Fail} verdict so that a
    crash anywhere in the pipeline is a finding rather than a harness
    abort, and so the shrinker can keep reducing a spec that makes the
    pipeline raise.

    The suite:
    - [diff_fib] — differential simulation: sequential vs parallel
      {!Netcore.Pool}, incremental {!Routing.Engine} vs from-scratch
      {!Routing.Simulate}, and each fast path against its explicit
      reference — {!Routing.Fib.probe_lookup} vs [Fib.lookup], OSPF
      selection vs {!ospf_crosscheck}, the data plane's forwarding tables
      vs the per-pair extraction ({!dataplane_divergence}) — including a
      short random edit walk re-checked after every step against a
      fresh simulation, with {!Routing.Engine.delta}
      required to be exactly the routers whose fresh FIB changed (the
      invariant both incremental anonymization fixpoints rest on);
    - [workflow] — anonymization invariants after {!Confmask.Workflow}:
      k-degree anonymity of the anonymized topology, functional
      equivalence (original nodes/links/hosts preserved and identical
      delivered path sets), and byte-identical output on a second run
      under the same seed;
    - [rename] — metamorphic: permuting router names (same declaration
      order, so the emitter assigns identical addresses) must permute the
      FIBs without changing their structure;
    - [reanon] — metamorphic: re-anonymizing an anonymized network must
      keep k-degree anonymity;
    - [scrub] — after the PII add-on, no password/secret/community/key
      token from the original configurations survives, and no original
      device name appears in the shared text;
    - [policy_transfer] — metamorphic: every policy mined from the
      original network ({!Spec.mine} — reachability, waypoints,
      load-balance width, all between real nodes) must still hold on
      the anonymized network ({!Confmask.Verify}); any verdict other
      than [holds_both] is a failure;
    - [deanon_budget] — red team: run the de-anonymization attack suite
      ({!Confmask.Audit}) against a PII-scrubbed output and assert the
      guaranteed budget — planted legacy small-int keys are recovered by
      the brute force, full 64-bit keys are not, prefix-hierarchy
      survival under the Pan map is exactly 1, top-5 re-identification
      dominates top-1, all scores in [0,1], and scoring is
      deterministic. *)

type verdict = Pass | Fail of string

type t = {
  name : string;
  doc : string;
  check : seed:int -> Netgen.Netspec.t -> verdict;
}

val diff_fib : t
val workflow : t
val rename : t
val reanon : t
val scrub : t
val policy_transfer : t
val deanon_budget : t

val all : t list
(** In cost order:
    [diff_fib; workflow; rename; scrub; reanon; policy_transfer;
     deanon_budget]. *)

val ospf_crosscheck : Routing.Device.network -> string option
(** OSPF selection recomputed per IGP domain from forward distances
    ({!Routing.Ospf.min_cost}): every {!Routing.Ospf.compute} route's
    metric must be the least [c + fwd(r, s)] over the prefix's
    advertisers [(s, c)], its next hops exactly the unfiltered OSPF
    adjacencies [a] of [r] with [cost(a) + D(a.to)] equal to that metric,
    and every router with such a next hop must have the route. [None]
    when everything agrees, else a description of the mismatch. *)

val dataplane_divergence :
  Routing.Dataplane.t -> Routing.Dataplane.t -> string option
(** [dataplane_divergence dp per_pair] compares an extracted data plane
    with the per-pair reference ({!Routing.Dataplane.extract_per_pair})
    over every ordered pair of [dp]'s hosts: the full traces must be
    equal and, where the reference's trace is not truncated, the path
    count, the enumeration of every path and the common waypoints must
    match its delivered list. [None] when everything agrees, else the
    first mismatch. *)

val find : string -> (t, string) result
(** Lookup by name; the error lists the valid names. *)

val run : t -> seed:int -> Netgen.Netspec.t -> verdict
(** Exception-safe: raising checks become [Fail] with the exception text.
    Bumps the [crucible.oracle_runs] telemetry counter. *)
