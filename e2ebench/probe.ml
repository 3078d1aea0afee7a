(* Benchmark probe: generates the benchmark's input networks, and replays
   one workload's steps in-process for the traced run. Every call into a
   layer's public function is timed from outside, and the spans and
   counters the program already records (Netcore.Telemetry) are
   harvested afterwards. Prints one JSON object of metrics on stdout.

     probe.exe gen OUT NET...            generate networks into OUT/<NET>
                                         (':' dropped from the directory name)
     probe.exe anonymize IN OUT SEED     replay `confmask anonymize`
     probe.exe cell IN OUT SEED          replay one `confmask batch` cell
     probe.exe serve REQS CACHE WARM     replay a serve request sequence

   NET is a catalog id (A..H, CCNP, W1000, ...) or FT:<pods> for a
   generated fat tree with <pods> pods of pods/2 + pods/2 routers. *)

open Confmask
module Json = Netcore.Json
module Telemetry = Netcore.Telemetry

let now = Netcore.Clock.now

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("probe: " ^ m); exit 1) fmt

(* ---- metrics ---- *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let put name v = Hashtbl.replace metrics name v
let get name = Option.value ~default:0. (Hashtbl.find_opt metrics name)
let add name v = put name (get name +. v)

let time_into name f =
  let v, s = timed f in
  add name s;
  v

let print_metrics ~ok ~extra =
  let fields =
    Hashtbl.fold (fun k v acc -> (k, Json.Num v) :: acc) metrics []
    |> List.sort compare
  in
  print_endline
    (Json.to_string
       (Json.Obj (("ok", Json.Bool ok) :: extra @ [ ("metrics", Json.Obj fields) ])))

(* Aggregated span seconds by last path component, outermost occurrence
   only, so a span nested in itself is not counted twice. *)
let span_seconds name =
  List.fold_left
    (fun acc (path, _, s) ->
      match List.rev (String.split_on_char '/' path) with
      | last :: ancestors when last = name && not (List.mem name ancestors) ->
          acc +. s
      | _ -> acc)
    0. (Telemetry.spans ())

let counter name =
  float_of_int
    (Option.value ~default:0 (List.assoc_opt name (Telemetry.counters ())))

(* Layer metrics the program's own telemetry carries. [per_job] divides
   the span totals, so on serve-mixed they read per job request. *)
let harvest ?(per_job = 1.) () =
  let sp name = span_seconds name /. per_job in
  put "core.workflow.baseline_s" (sp "workflow.baseline");
  put "core.topo_anon_s" (sp "workflow.topo");
  put "core.route_equiv_s" (sp "workflow.equiv");
  put "core.route_anon_s" (sp "workflow.anon");
  put "graphanon.realize_s" (sp "topo.realize");
  put "routing.engine_build_s" (sp "engine.build");
  put "routing.engine_domains_s" (sp "engine.domains");
  List.iter
    (fun (metric, name) -> put metric (counter name))
    [
      ("graphanon.rounds", "graphanon.rounds");
      ("graphanon.stuck", "graphanon.stuck");
      ("routing.engine.spf_full", "engine.spf_full");
      ("routing.ospf.dijkstras", "ospf.dijkstras");
      ("core.route_equiv.iterations", "equiv.iterations");
      ("core.route_equiv.delta_routers", "equiv.delta_routers");
      ("core.route_anon.iterations", "anon.iterations");
      ("core.route_anon.filters_added", "anon.filters_added");
      ("core.route_anon.filters_removed", "anon.filters_removed");
      ("core.route_anon.walks_skipped", "anon.walks_skipped");
      ("routing.fec.classes", "fec.classes");
      ("routing.fec.traced", "fec.traced");
      ("spec.policies", "verify.policies");
      ("netcore.pool.tasks", "pool.tasks");
      ("netcore.pool.steals", "pool.steals");
    ];
  let reuse = counter "engine.fib_reuse" and build = counter "engine.fib_build" in
  put "routing.engine.fib_reuse_ratio"
    (if reuse +. build > 0. then reuse /. (reuse +. build) else 0.);
  let hit = counter "diskcache.hit" and miss = counter "diskcache.miss" in
  put "netcore.diskcache.hit_ratio"
    (if hit +. miss > 0. then hit /. (hit +. miss) else 0.);
  let g = Gc.quick_stat () in
  let words_per_mb = 1e6 /. float_of_int (Sys.word_size / 8) in
  put "gc.minor_mwords" (g.minor_words /. 1e6);
  put "gc.major_mwords" (g.major_words /. 1e6);
  put "gc.top_heap_mb" (float_of_int g.top_heap_words /. words_per_mb)

(* The workflow's residual: what Workflow.run spends outside its four
   phase spans (and the PII stage, when it runs). *)
let workflow_residual ?(per_job = 1.) () =
  let phases =
    List.fold_left
      (fun acc n -> acc +. (span_seconds n /. per_job))
      0.
      [ "workflow.baseline"; "workflow.topo"; "workflow.equiv"; "workflow.anon";
        "workflow.pii" ]
  in
  put "core.workflow.unattributed_s" (get "core.workflow_s" -. phases)

(* ---- inputs ---- *)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let mkdir_p dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let write_configs dir configs =
  mkdir_p dir;
  List.iter
    (fun (c : Configlang.Ast.config) ->
      write_file
        (Filename.concat dir (c.hostname ^ ".cfg"))
        (Configlang.Vendor.print Configlang.Vendor.Cisco c))
    configs

let spec_of_net net =
  match String.split_on_char ':' net with
  | [ "FT"; pods ] -> (
      match int_of_string_opt pods with
      | Some p when p >= 4 && p mod 2 = 0 ->
          Netgen.Fattree.make ~pods:p ~core:p ~agg_per_pod:(p / 2)
            ~edge_per_pod:(p / 2) ~hosts_per_edge:2 ~core_per_agg:4
      | _ -> die "bad fat tree '%s'" net)
  | _ -> (
      try (Netgen.Nets.find net).spec with Not_found -> die "unknown net '%s'" net)

let gen out nets =
  mkdir_p out;
  List.iter
    (fun net ->
      let dir = String.concat "" (String.split_on_char ':' net) in
      write_configs (Filename.concat out dir) (Netgen.Emit.emit (spec_of_net net)))
    nets

(* ---- replays ---- *)

let params seed = { Workflow.default_params with seed }

let run_workflow ~params configs =
  match Workflow.run ~params configs with
  | Ok r -> r
  | Error m -> die "workflow failed: %s" m

(* `confmask anonymize`: read, anonymize, write the configurations and
   the secrets file, compute the utility figures, check equivalence. *)
let anonymize in_dir out_dir seed =
  Telemetry.set_enabled true;
  let t0 = now () in
  let configs = time_into "configlang.parse_s" (fun () -> Batch.read_config_dir in_dir) in
  let r =
    time_into "core.workflow_s" (fun () -> run_workflow ~params:(params seed) configs)
  in
  time_into "configlang.print_s" (fun () ->
      write_configs out_dir r.anon_configs;
      let b = Buffer.create 4096 in
      Buffer.add_string b "# Private mapping - do NOT share with the configs\n";
      List.iter (fun (u, v) -> Printf.bprintf b "fake-link %s %s\n" u v) r.fake_edges;
      List.iter
        (fun (f, real) -> Printf.bprintf b "fake-host %s (copy of %s)\n" f real)
        r.fake_hosts;
      List.iter (fun f -> Printf.bprintf b "fake-router %s\n" f) r.fake_router_names;
      write_file (Filename.concat out_dir "confmask-secrets.txt") (Buffer.contents b));
  time_into "core.metrics_s" (fun () ->
      ignore (Metrics.topology_of_snapshot r.anon_snapshot);
      ignore (Metrics.config_utility ~orig:r.orig_configs ~anon:r.anon_configs));
  let feq =
    time_into "core.functional_equivalence_s" (fun () ->
        Workflow.functional_equivalence r)
  in
  let parent = now () -. t0 in
  put "anonymize.replay_s" parent;
  put "anonymize.unattributed_s"
    (parent
    -. List.fold_left
         (fun acc n -> acc +. get n)
         0.
         [ "configlang.parse_s"; "core.workflow_s"; "configlang.print_s";
           "core.metrics_s"; "core.functional_equivalence_s" ]);
  workflow_residual ();
  harvest ();
  (* Outside the replayed run: one extraction of both data planes, the
     step inside the equivalence check. *)
  time_into "routing.dataplane_s" (fun () ->
      ignore (Routing.Simulate.dataplane r.orig_snapshot);
      ignore (Routing.Simulate.dataplane r.anon_snapshot));
  print_metrics ~ok:feq ~extra:[]

let record_field record name =
  match Json.parse record with
  | Ok j -> Json.member name j
  | Error _ -> None

(* One batch cell: first the real Batch.execute (its result.json timer
   stops before the verification and red-team records are built; the
   gap is core.batch.unrecorded_s), then the same steps call by call. *)
let cell in_dir out_dir seed =
  Telemetry.set_enabled true;
  mkdir_p out_dir;
  let p = params seed in
  let job =
    { Batch.job_id = Printf.sprintf "%s-kr%d-kh%d" (Filename.basename in_dir) p.k_r p.k_h;
      job_source = Batch.Dir in_dir; job_params = p }
  in
  let record, exec_s =
    timed (fun () ->
        Batch.execute ~out:out_dir ~cache:None ~format:Configlang.Vendor.Cisco job)
  in
  let recorded =
    match Option.bind (record_field record "seconds") Json.num with
    | Some s -> s
    | None -> die "cell record has no seconds: %s" record
  in
  put "core.batch.execute_s" exec_s;
  put "core.batch.unrecorded_s" (exec_s -. recorded);
  Telemetry.reset ();
  let t0 = now () in
  let configs = time_into "configlang.parse_s" (fun () -> Batch.read_config_dir in_dir) in
  let r =
    time_into "core.workflow_s" (fun () -> run_workflow ~params:p configs)
  in
  let digest =
    time_into "configlang.print_s" (fun () ->
        write_configs
          (Filename.concat (Filename.concat out_dir job.job_id) "configs")
          r.anon_configs;
        Digest.to_hex
          (Digest.string (String.concat "\x00" (List.map snd (Workflow.anon_texts r)))))
  in
  let v = time_into "core.verify_s" (fun () -> Verify.of_report r) in
  List.iter
    (fun a ->
      time_into
        (Printf.sprintf "redteam.%s_s" a)
        (fun () -> ignore (Audit.of_report ~attacks:[ a ] r)))
    Redteam.Suite.names;
  let feq =
    time_into "core.functional_equivalence_s" (fun () ->
        Workflow.functional_equivalence r)
  in
  let parent = now () -. t0 in
  put "cell.replay_s" parent;
  let children =
    [ "configlang.parse_s"; "core.workflow_s"; "configlang.print_s"; "core.verify_s";
      "core.functional_equivalence_s" ]
    @ List.map (Printf.sprintf "redteam.%s_s") Redteam.Suite.names
  in
  put "cell.unattributed_s"
    (parent -. List.fold_left (fun acc n -> acc +. get n) 0. children);
  workflow_residual ();
  harvest ();
  (* Outside the replayed cell: one extraction of both data planes, the
     step that verify, no_traffic and the equivalence check each repeat. *)
  time_into "routing.dataplane_s" (fun () ->
      ignore (Routing.Simulate.dataplane r.orig_snapshot);
      ignore (Routing.Simulate.dataplane r.anon_snapshot));
  let lost = v.summary.lost in
  let same = Option.bind (record_field record "digest") Json.str = Some digest in
  print_metrics ~ok:(feq && lost = 0 && same)
    ~extra:[ ("digest", Json.Str digest); ("lost", Json.Num (float_of_int lost)) ]

(* A serve request sequence, one JSON line per request, through the
   daemon's dispatcher without a socket (the first [warm] requests
   untimed); then every read request again, step by step, to split it
   into parse, simulate and check. *)
let serve reqs_file cache_dir warm =
  let lines =
    String.split_on_char '\n' (read_file reqs_file) |> List.filter (( <> ) "")
  in
  Telemetry.set_enabled true;
  let cache = Some (Routing.Engine.open_cache cache_dir) in
  let server = ref None in
  let kind req =
    match Option.bind (Json.member "op" req) Json.str with
    | Some "job" -> "job"
    | Some ("verify" | "redteam") -> "read"
    | _ -> "ping"
  in
  let counts = Hashtbl.create 4 and ok = ref true and reads = ref [] in
  let handled = ref 0. in
  List.iteri
    (fun i line ->
      let req =
        match Json.parse line with Ok j -> j | Error m -> die "bad request: %s" m
      in
      let k = kind req in
      let resp, s = timed (fun () -> Serve.handle ~server ~cache ~tenants:[] line) in
      (match Json.parse resp with
      | Ok j when Option.bind (Json.member "ok" j) Json.bool = Some true -> ()
      | _ ->
          prerr_endline ("probe: request failed: " ^ resp);
          ok := false);
      if i >= warm then begin
        handled := !handled +. s;
        add (Printf.sprintf "core.serve.handle_%s_ms" k) (s *. 1000.);
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k));
        if k = "read" then reads := req :: !reads
      end)
    lines;
  let n k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  List.iter
    (fun k ->
      let m = Printf.sprintf "core.serve.handle_%s_ms" k in
      if n k > 0. then put m (get m /. n k))
    [ "job"; "read"; "ping" ];
  let per_job = Float.max 1. (n "job" +. float_of_int warm) in
  put "core.workflow_s" (span_seconds "workflow.run" /. per_job);
  workflow_residual ~per_job ();
  harvest ~per_job ();
  (* Step-by-step reads, reported per read request. *)
  let str req name = Option.value ~default:"" (Option.bind (Json.member name req) Json.str) in
  List.iter
    (fun req ->
      let load dir =
        let configs = time_into "configlang.parse_s" (fun () -> Batch.read_config_dir dir) in
        let snap =
          time_into "routing.simulate_s" (fun () -> Routing.Simulate.run_exn configs)
        in
        (configs, snap)
      in
      let orig_configs, orig = load (str req "orig_dir") in
      let anon_configs, anon = load (str req "anon_dir") in
      if str req "op" = "verify" then
        time_into "core.verify_s" (fun () -> ignore (Verify.check ~orig ~anon ()))
      else
        List.iter
          (fun a ->
            time_into
              (Printf.sprintf "redteam.%s_s" a)
              (fun () ->
                ignore
                  (Audit.check ~attacks:[ a ] ~orig_configs ~orig ~anon_configs ~anon ())))
          Redteam.Suite.names)
    !reads;
  let nreads = Float.max 1. (n "read") in
  List.iter
    (fun m -> put m (get m /. nreads))
    ([ "configlang.parse_s"; "routing.simulate_s"; "core.verify_s" ]
    @ List.map (Printf.sprintf "redteam.%s_s") Redteam.Suite.names);
  print_metrics ~ok:!ok ~extra:[ ("handled_s", Json.Num !handled) ]

let () =
  let int s = match int_of_string_opt s with Some n -> n | None -> die "bad int '%s'" s in
  match List.tl (Array.to_list Sys.argv) with
  | "gen" :: out :: (_ :: _ as nets) -> gen out nets
  | [ "anonymize"; in_dir; out_dir; seed ] -> anonymize in_dir out_dir (int seed)
  | [ "cell"; in_dir; out_dir; seed ] -> cell in_dir out_dir (int seed)
  | [ "serve"; reqs; cache; warm ] -> serve reqs cache (int warm)
  | _ ->
      prerr_endline
        "usage: probe.exe gen OUT NET... | anonymize IN OUT SEED | cell IN OUT SEED \
         | serve REQS CACHE WARM";
      exit 2
