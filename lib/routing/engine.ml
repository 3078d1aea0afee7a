open Netcore
module Smap = Device.Smap
module Ast = Configlang.Ast

module Dmap = Map.Make (struct
  type t = [ `As of int | `Residual | `Global ]

  let compare = compare
end)

(* Structural fingerprints over the *compiled* router, so textually
   different but semantically identical configs (resolved ACLs, defaulted
   costs) hash equal. Everything in [Device.router] is immutable data, so
   Marshal is a sound structural serializer. *)
let digest v = Digest.string (Marshal.to_string v [])

(* Cache-layer hit/miss counters. Reuse counters and their recompute
   denominators come in pairs so reports can form hit rates. *)
let c_spf_reuse = Telemetry.counter "engine.spf_reuse"
let c_spf_full = Telemetry.counter "engine.spf_full"
let c_sel_patch = Telemetry.counter "engine.sel_patch"
let c_dv_recompute = Telemetry.counter "engine.dv_recompute"
let c_bgp_skip = Telemetry.counter "engine.bgp_skip"
let c_bgp_compute = Telemetry.counter "engine.bgp_compute"
let c_fib_reuse = Telemetry.counter "engine.fib_reuse"
let c_fib_build = Telemetry.counter "engine.fib_build"
let c_edits = Telemetry.counter "engine.edits"

(* Persistent-cache hits: from-scratch builds restored whole from disk. *)
let c_state_disk = Telemetry.counter "engine.state_disk"

(* ---- persistent cross-run cache ----

   One entry kind in a [Netcore.Diskcache] directory: the whole engine
   state (domains, base and final FIBs, BGP routes) of a from-scratch
   build, keyed by every router's full fingerprint. A key collision
   implies input equality, which implies output equality (the build is a
   deterministic function of the compiled routers). Builds with a [prev]
   neither read nor write it: in-memory reuse already covers them, and
   one megabyte-scale entry per fixpoint iteration would balloon the
   store.

   Bump [cache_version] whenever any marshaled type or fingerprint
   definition changes — the versioned index then invalidates the whole
   directory. *)

(* The disk store's envelope is portable ({!Netcore.Codec}), but the
   persisted state is still [Marshal]ed, so the engine — not the store —
   must pin the compiler version until the payload gets a portable codec
   of its own. *)
let cache_version = "confmask-engine-4/ocaml-" ^ Sys.ocaml_version
let open_cache dir = Diskcache.open_dir ~version:cache_version dir

let full_fp (r : Device.router) = digest r

(* What the SPF state of a domain depends on: presence of an OSPF process,
   its [network] statements, and every interface's name/address/cost.
   Distribute-lists are deliberately excluded — they only affect route
   selection, not the Dijkstras. *)
let spf_fp (r : Device.router) =
  digest
    ( Option.map (fun (o : Device.ospf_proc) -> o.op_networks) r.r_ospf,
      List.map
        (fun (i : Device.iface) -> (i.ifc_name, i.ifc_addr, i.ifc_plen, i.ifc_cost))
        r.r_ifaces )

(* What one router's OSPF route selection depends on beyond the SPF state. *)
let sel_fp (r : Device.router) =
  digest (Option.map (fun (o : Device.ospf_proc) -> o.op_filters) r.r_ospf)

(* Distance-vector protocols propagate filters, so any DV-relevant change
   at one member invalidates the whole domain. *)
let dv_fp (r : Device.router) =
  digest
    ( r.r_rip,
      r.r_eigrp,
      List.map
        (fun (i : Device.iface) ->
          (i.ifc_name, i.ifc_addr, i.ifc_plen, i.ifc_delay))
        r.r_ifaces )

type dom_cache = {
  dc_members : string list;
  dc_spf : string;  (* combined members' spf_fp *)
  dc_state : Ospf.state option;  (* None when no member runs OSPF *)
  (* member -> sel_fp, distribute-list filters, selected routes *)
  dc_sel :
    (string * (string * Ast.prefix_list) list * Fib.route list) Smap.t;
  dc_dv : string;  (* combined members' dv_fp *)
  dc_rip : Fib.route list Smap.t;
  dc_eigrp : Fib.route list Smap.t;
}

type t = {
  pool : Pool.t option;
  configs : Ast.config list;
  net : Device.network;
  compiled : Compiled.t;  (* reused across topology-preserving edits *)
  fps : string Smap.t;  (* full fingerprint per router *)
  doms : dom_cache Dmap.t;
  (* per router: local routes and the IGP lists, as {!candidates} gives *)
  cands : (Fib.route list * Fib.route list list) Smap.t;
  base : Fib.t Smap.t;
  bgp : Fib.route list Smap.t;
  fibs : Fib.t Smap.t;
  (* Routers whose final FIB changed relative to the previous engine
     state; [None] for from-scratch builds (no previous state to diff
     against — consumers must treat every router as changed). *)
  delta : string list option;
}

let snapshot t = { Simulate.net = t.net; fibs = t.fibs; compiled = t.compiled }
let configs t = t.configs
let network t = t.net
let compiled t = t.compiled
let fibs t = t.fibs
let pool t = t.pool
let delta t = t.delta

(* ---- per-domain computation with cache reuse ---- *)

let compute_domain ?pool ~prev (net : Device.network)
    (d : Simulate.igp_domain) =
  let routers =
    List.filter_map
      (fun m -> Option.map (fun r -> (m, r)) (Smap.find_opt m net.routers))
      d.dom_members
  in
  let spf = digest (List.map (fun (m, r) -> (m, spf_fp r)) routers) in
  let dv = digest (List.map (fun (m, r) -> (m, dv_fp r)) routers) in
  let prev =
    match prev with
    | Some c when c.dc_members = d.dom_members -> Some c
    | _ -> None
  in
  let has f = List.exists (fun (_, r) -> f r) routers in
  let state, sel =
    if not (has (fun r -> r.Device.r_ospf <> None)) then (None, Smap.empty)
    else
      let filters_of (r : Device.router) =
        match r.r_ospf with Some o -> o.op_filters | None -> []
      in
      let select st reuse =
        (* Recompute selection only for members whose filters changed. *)
        let pre =
          Pool.parallel_map ?pool
            (fun (m, r) ->
              let fp = sel_fp r in
              (m, r, fp, reuse st m r fp))
            routers
        in
        let misses =
          List.fold_left
            (fun n (_, _, _, o) -> if o = None then n + 1 else n)
            0 pre
        in
        if 4 * misses > List.length routers then
          (* Most members need full selection (a cold run): one dense
             [select_all] sweep answers every miss at once, far cheaper
             than a per-router [routes_for] probe each. Scattered misses
             — the incremental-edit case — stay on the per-router path
             below; the sweep's cost is all-prefix × all-router no
             matter how few routers ask. The batch is exact —
             [Smap.find_opt m batch] with a [[]] default equals
             [routes_for st net m] for every scoped member, so the
             threshold cannot change results. *)
          let batch = Ospf.select_all ?pool st net in
          List.fold_left
            (fun acc (m, r, fp, o) ->
              let routes =
                match o with
                | Some routes -> routes
                | None -> Option.value ~default:[] (Smap.find_opt m batch)
              in
              Smap.add m (fp, filters_of r, routes) acc)
            Smap.empty pre
        else
          Pool.parallel_map ?pool
            (fun (m, r, fp, o) ->
              match o with
              | Some routes -> (m, (fp, filters_of r, routes))
              | None -> (m, (fp, filters_of r, Ospf.routes_for st net m)))
            pre
          |> List.fold_left (fun acc (m, v) -> Smap.add m v acc) Smap.empty
      in
      (* Patch one member's previous selection given the prefixes whose
         SPF distances changed; gives up (full recompute) when the
         member's filter change cannot be bounded. *)
      let reuse_with c spf_changed st m (r : Device.router) fp =
        match Smap.find_opt m c.dc_sel with
        | Some (fp', _, routes)
          when String.equal fp fp' && spf_changed = [] -> Some routes
        | Some (fp', old_filters, routes) -> (
            let filter_affected =
              if String.equal fp fp' then Some []
              else Ospf.changed_filter_prefixes old_filters (filters_of r)
            in
            match filter_affected with
            | Some affected ->
                Telemetry.incr c_sel_patch;
                Some
                  (Ospf.routes_for_update st net m ~prev:routes
                     ~affected:(spf_changed @ affected))
            | None -> None)
        | None -> None
      in
      let full () =
        Telemetry.incr c_spf_full;
        let st = Ospf.prepare ~scope:d.dom_scope ?pool net in
        (Some st, select st (fun _ _ _ _ -> None))
      in
      match prev with
      | Some c when String.equal c.dc_spf spf && c.dc_state <> None ->
          Telemetry.incr c_spf_reuse;
          let st = Option.get c.dc_state in
          (Some st, select st (reuse_with c []))
      | Some c when c.dc_state <> None -> (
          (* SPF inputs changed; when no router-to-router adjacency moved
             (stub attachments only) the old distance fields survive. *)
          match
            Ospf.prepare_update ~scope:d.dom_scope ?pool
              ~prev:(Option.get c.dc_state) net
          with
          | Some (st, changed) ->
              Telemetry.incr c_spf_reuse;
              (Some st, select st (reuse_with c changed))
          | None -> full ())
      | _ -> full ()
  in
  let rip, eigrp =
    match prev with
    | Some c when String.equal c.dc_dv dv -> (c.dc_rip, c.dc_eigrp)
    | _ ->
        if not (has (fun r -> (r.Device.r_rip <> None) || r.r_eigrp <> None))
        then (Smap.empty, Smap.empty)
        else (
          Telemetry.incr c_dv_recompute;
          ( (if has (fun r -> r.Device.r_rip <> None) then
               Rip.compute ~scope:d.dom_scope net
             else Smap.empty),
            if has (fun r -> r.Device.r_eigrp <> None) then
              Eigrp.compute ~scope:d.dom_scope net
            else Smap.empty ))
  in
  {
    dc_members = d.dom_members;
    dc_spf = spf;
    dc_state = state;
    dc_sel = sel;
    dc_dv = dv;
    dc_rip = rip;
    dc_eigrp = eigrp;
  }

(* Per-router base-FIB inputs: the local (connected and static) routes,
   recomputed every build, and one list per IGP protocol exactly as the
   domain cache holds it — uncopied, so a member whose selection
   [compute_domain] reused hands over the previous build's lists
   physically. *)
let candidates (net : Device.network) doms =
  Telemetry.with_span "engine.candidates" @@ fun () ->
  let find m tbl = Option.value ~default:[] (Smap.find_opt m tbl) in
  Dmap.fold
    (fun _ dc acc ->
      List.fold_left
        (fun acc m ->
          let ospf =
            match Smap.find_opt m dc.dc_sel with Some (_, _, rs) -> rs | None -> []
          in
          Smap.add m
            ( Simulate.local_routes net (Smap.find m net.routers),
              [ ospf; find m dc.dc_rip; find m dc.dc_eigrp ] )
            acc)
        acc dc.dc_members)
    doms Smap.empty

(* The whole-state payload of a from-scratch build. [net] is recompiled
   from the configs on restore (cheap, deterministic), [fps] is what the
   key was derived from, and [candidates] of [ps_doms] shares the
   domains' lists physically, so none is stored. *)
type persisted_state = {
  ps_doms : dom_cache Dmap.t;
  ps_base : Fib.t Smap.t;
  ps_bgp : Fib.route list Smap.t;
  ps_fibs : Fib.t Smap.t;
}

let state_key fps = "state:" ^ Digest.to_hex (digest (Smap.bindings fps))

(* [cache] and [prev] are never both given: {!of_configs} builds from
   scratch against the disk cache, {!apply_edit} from a previous state. *)
let build ?pool ?cache ?prev configs =
  Telemetry.with_span "engine.build" @@ fun () ->
  match Device.compile configs with
  | Error m -> Error m
  | Ok net ->
      (* The compiled form depends on interface-level topology only, so
         the filter edits the fixpoints issue reuse it wholesale; it is
         never persisted (cheap to rebuild, and full of closures-free but
         large hash tables the structural caches don't need). *)
      let compiled =
        Compiled.get ?prev:(Option.map (fun p -> p.compiled) prev) net
      in
      let fps = Smap.map full_fp net.routers in
      let restored =
        (* Only {!of_configs} passes a [cache]: with a [prev] the in-memory
           deltas are cheaper than deserializing megabytes of state. *)
        Option.bind cache (fun c ->
            Option.bind (Diskcache.find c (state_key fps)) (fun s ->
                try Some (Marshal.from_string s 0 : persisted_state)
                with _ -> None))
      in
      match restored with
      | Some ps ->
          Telemetry.incr c_state_disk;
          Ok
            {
              pool;
              configs;
              net;
              compiled;
              fps;
              doms = ps.ps_doms;
              cands = candidates net ps.ps_doms;
              base = ps.ps_base;
              bgp = ps.ps_bgp;
              fibs = ps.ps_fibs;
              delta = None;
            }
      | None ->
      let unchanged =
        (* Routers whose whole config (hence statics, ACLs, everything
           entering a FIB) is identical to the previous engine state. *)
        match prev with
        | None -> fun _ -> false
        | Some p -> (
            fun name ->
              match (Smap.find_opt name fps, Smap.find_opt name p.fps) with
              | Some a, Some b -> String.equal a b
              | _ -> false)
      in
      let prev_doms = match prev with Some p -> p.doms | None -> Dmap.empty in
      let doms =
        Telemetry.with_span "engine.domains" @@ fun () ->
        Pool.parallel_map ?pool
          (fun (d : Simulate.igp_domain) ->
            ( d.dom_key,
              compute_domain ?pool
                ~prev:(Dmap.find_opt d.dom_key prev_doms)
                net d ))
          (Simulate.igp_domains net)
        |> List.fold_left (fun acc (k, v) -> Dmap.add k v acc) Dmap.empty
      in
      let cands = candidates net doms in
      let base =
        Telemetry.with_span "engine.base_fib" @@ fun () ->
        Smap.mapi
          (fun name (local, igps) ->
            (* IGP lists by identity (see [candidates]); local routes by
               value, as statics resolve through other routers' addresses. *)
            let reusable =
              match prev with
              | Some p -> (
                  match Smap.find_opt name p.cands with
                  | Some (local', igps')
                    when List.equal ( == ) igps igps' && local = local' ->
                      Smap.find_opt name p.base
                  | _ -> None)
              | None -> None
            in
            match reusable with
            | Some fib ->
                Telemetry.incr c_fib_reuse;
                fib
            | None ->
                Telemetry.incr c_fib_build;
                Simulate.base_fib local igps)
          cands
      in
      (* A router's base FIB equals the previous engine's, physically (the
         reuse above) or structurally (the FIB representation is
         canonical, so equal candidates give equal values). Both gates
         below reduce to this one predicate — the old physical-only [==]
         test silently degraded to a recompute whenever a structurally
         identical FIB arrived through a fresh build. *)
      let base_same =
        match prev with
        | None -> fun _ _ -> false
        | Some p -> (
            fun name fib ->
              match Smap.find_opt name p.base with
              | Some f -> f == fib || f = fib
              | None -> false)
      in
      let has_bgp =
        Smap.exists (fun _ (r : Device.router) -> r.r_bgp <> None) net.routers
      in
      let bgp, fibs =
        if not has_bgp then (Smap.empty, base)
        else
          let bgp =
            (* BGP is a global fixpoint over the IGP-resolved base FIBs:
               it is redone whenever any router changed at all, and only
               skipped on a no-op edit. Equal full fingerprints already
               imply equal compiled routers, hence equal base FIBs — no
               fragile physical-identity conjunct needed. *)
            match prev with
            | Some p when Smap.equal String.equal fps p.fps ->
                Telemetry.incr c_bgp_skip;
                p.bgp
            | _ ->
                Telemetry.incr c_bgp_compute;
                Telemetry.with_span "engine.bgp" (fun () ->
                    Bgp.compute net ~igp_fibs:base)
          in
          let fibs =
            Smap.mapi
              (fun name fib ->
                let bc = Option.value ~default:[] (Smap.find_opt name bgp) in
                let reusable =
                  match prev with
                  | Some p
                    when unchanged name && base_same name fib
                         && Option.value ~default:[] (Smap.find_opt name p.bgp)
                            = bc -> Smap.find_opt name p.fibs
                  | _ -> None
                in
                match reusable with
                | Some final ->
                    Telemetry.incr c_fib_reuse;
                    final
                | None ->
                    Telemetry.incr c_fib_build;
                    List.fold_left (fun fib c -> Fib.add_candidate c fib) fib bc)
              base
          in
          (bgp, fibs)
      in
      Option.iter
        (fun c ->
          Diskcache.add c ~key:(state_key fps)
            (Marshal.to_string
               { ps_doms = doms; ps_base = base; ps_bgp = bgp; ps_fibs = fibs }
               []))
        cache;
      (* The FIB delta of this build. The final-FIB representation is
         canonical (a sorted route array), so structural equality is a
         sound change test whatever path produced the value; the physical
         check first makes the common reuse case O(1). *)
      let delta =
        match prev with
        | None -> None
        | Some p ->
            let changed =
              Smap.merge
                (fun name f f' ->
                  match (f, f') with
                  | Some a, Some b when a == b || a = b -> None
                  | None, None -> None
                  | _ -> Some name)
                p.fibs fibs
            in
            Some (List.map fst (Smap.bindings changed))
      in
      Ok
        {
          pool;
          configs;
          net;
          compiled;
          fps;
          doms;
          cands;
          base;
          bgp;
          fibs;
          delta;
        }

let of_configs ?pool ?cache configs = build ?pool ?cache configs

(* ---- shadow self-check ---- *)

let selfcheck = Atomic.make false
let set_selfcheck b = Atomic.set selfcheck b

let selfcheck_divergence t =
  match Simulate.run ?pool:t.pool t.configs with
  | Error m -> Some (Printf.sprintf "reference simulation failed: %s" m)
  | Ok reference ->
      let divergent =
        Smap.merge
          (fun name inc ref_ ->
            match (inc, ref_) with
            | Some a, Some b when a = b -> None
            | None, None -> None
            | _ -> Some name)
          t.fibs reference.fibs
      in
      if Smap.is_empty divergent then None
      else
        Some
          ("FIB divergence at "
          ^ String.concat ", " (List.map fst (Smap.bindings divergent)))

let apply_edit t configs =
  Telemetry.incr c_edits;
  match build ?pool:t.pool ~prev:t configs with
  | Error _ as e -> e
  | Ok t' as ok ->
      if Atomic.get selfcheck then
        Telemetry.with_span "engine.selfcheck" (fun () ->
            match selfcheck_divergence t' with
            | None -> ()
            | Some msg ->
                failwith
                  (Printf.sprintf
                     "Engine.apply_edit self-check failed: incremental \
                      result diverges from Simulate.run — %s"
                     msg));
      ok

let of_configs_exn ?pool ?cache configs =
  match of_configs ?pool ?cache configs with
  | Ok t -> t
  | Error m -> failwith m

let apply_edit_exn t configs =
  match apply_edit t configs with Ok t -> t | Error m -> failwith m
