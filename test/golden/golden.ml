(* Output digests of the anonymization pipeline, compared against the
   committed golden.expected by [dune runtest]. Every line is an MD5 over
   bytes the pipeline emits, so any change to an execution path that
   alters an anonymized configuration, a figure, or a batch record shows
   up as a diff here.

   Usage: golden.exe BENCH_STDOUT CELL_RESULT_JSON
   - digests Workflow.anon_texts at default params for nets A-H, FT16 and
     W500 under pools of 1 and 4 jobs;
   - digests BENCH_STDOUT (the fig5-fig9 --fast bench output) without its
     "[bench completed in ...]" timing line;
   - digests CELL_RESULT_JSON (net A's batch-cell result.json) without
     its run-dependent "seconds" and "telemetry" members;
   - digests the full verification report (every policy entry with its
     evidence paths) and the red-team audit of net D's default run,
     whose anonymization injects fake links;
   - digests the links the no-traffic attack flags on net C after
     topology anonymization and Strawman 1, whose blanket filters leave
     fake links without traffic. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let workflow_digest id =
  let configs = Netgen.Nets.configs (Netgen.Nets.find id) in
  match Confmask.Workflow.run configs with
  | Error m -> "error: " ^ m
  | Ok report ->
      let b = Buffer.create (1 lsl 16) in
      List.iter
        (fun (host, text) ->
          Buffer.add_string b host;
          Buffer.add_char b '\000';
          Buffer.add_string b text;
          Buffer.add_char b '\000')
        (Confmask.Workflow.anon_texts report);
      Digest.to_hex (Digest.string (Buffer.contents b))

let bench_digest path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l ->
         not (String.starts_with ~prefix:"[bench completed in" l))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let cell_digest path =
  match Netcore.Json.parse (read_file path) with
  | Error m -> "error: " ^ m
  | Ok (Netcore.Json.Obj kvs) ->
      Netcore.Json.Obj
        (List.filter (fun (k, _) -> k <> "seconds" && k <> "telemetry") kvs)
      |> Netcore.Json.to_string |> Digest.string |> Digest.to_hex
  | Ok _ -> "error: result.json is not an object"

let json_digest j = Digest.to_hex (Digest.string (Netcore.Json.to_string j))

let report_digests id =
  let configs = Netgen.Nets.configs (Netgen.Nets.find id) in
  match Confmask.Workflow.run configs with
  | Error m -> ("error: " ^ m, "error: " ^ m)
  | Ok r ->
      ( json_digest (Confmask.Verify.to_json ~entries:true (Confmask.Verify.of_report r)),
        json_digest (Confmask.Audit.to_json (Confmask.Audit.of_report r)) )

let strawman_no_traffic id =
  let configs = Netgen.Nets.configs (Netgen.Nets.find id) in
  let orig = Routing.Simulate.run_exn configs in
  let rng = Netcore.Rng.create 42 in
  let topo = Confmask.Topo_anon.anonymize ~rng ~k:6 ~orig configs in
  match
    Confmask.Strawman.strawman1 ~orig ~fake_edges:topo.fake_edges topo.configs
  with
  | Error m -> "error: " ^ m
  | Ok o ->
      let flagged =
        Confmask.Deanon.no_traffic_links (Routing.Simulate.run_exn o.configs)
      in
      Printf.sprintf "flagged=%d %s" (List.length flagged)
        (Digest.to_hex
           (Digest.string
              (String.concat "\n" (List.map (fun (u, v) -> u ^ " " ^ v) flagged))))

let () =
  let nets = [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H"; "FT16"; "W500" ] in
  List.iter
    (fun jobs ->
      Netcore.Pool.set_default_jobs jobs;
      List.iter
        (fun id -> Printf.printf "anon_texts %s jobs=%d %s\n" id jobs (workflow_digest id))
        nets)
    [ 1; 4 ];
  Printf.printf "bench fig5-fig9 %s\n" (bench_digest Sys.argv.(1));
  Printf.printf "batch cell A %s\n" (cell_digest Sys.argv.(2));
  let verify, audit = report_digests "D" in
  Printf.printf "verify entries D %s\n" verify;
  Printf.printf "redteam audit D %s\n" audit;
  Printf.printf "strawman1 no_traffic C %s\n" (strawman_no_traffic "C")
