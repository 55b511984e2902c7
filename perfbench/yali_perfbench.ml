(** The end-to-end benchmark (see BENCHMARK.json at the repository root):

      yali_perfbench --workload W --seed N --seconds S --trace 0|1

    runs one workload (game-flat, game-graph, serve, adapt) in a fresh
    process, checks its outputs, and prints the result as the last line of
    standard output: a JSON object with [correct], [attempted], [failed]
    and [metrics] — the end-to-end metrics untraced, the per-layer metrics
    with [--trace 1].  Exits 1 when a check fails, 2 on bad arguments. *)

let usage () =
  prerr_endline
    "usage: yali_perfbench --workload game-flat|game-graph|serve|adapt \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  Yali.Exec.Pool.set_jobs 1;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = Serve_load.daemon_flag then
    Serve_load.daemon ()
  else begin
    let workload = ref "" and seed = ref 1 in
    let seconds = ref 15.0 and trace = ref false in
    let rec parse = function
      | [] -> ()
      | "--workload" :: w :: rest -> workload := w; parse rest
      | "--seed" :: n :: rest -> (
          match int_of_string_opt n with
          | Some n when n >= 0 -> seed := n; parse rest
          | _ -> usage ())
      | "--seconds" :: s :: rest -> (
          match float_of_string_opt s with
          | Some s when s > 0.0 -> seconds := s; parse rest
          | _ -> usage ())
      | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
      | _ -> usage ()
    in
    parse (List.tl (Array.to_list Sys.argv));
    let run =
      match !workload with
      | "game-flat" -> Games.game_flat
      | "game-graph" -> Games.game_graph
      | "serve" -> Serve_load.run
      | "adapt" -> Adapt_load.run
      | _ -> usage ()
    in
    (try Sys.mkdir "perfbench/_out" 0o755 with Sys_error _ -> ());
    let t0 = Common.clock () in
    let r = run ~seed:!seed ~seconds:!seconds ~trace:!trace in
    Common.log "%s seed %d: %d ops attempted, %d failed (failed_ratio %.4f), \
                %s, %.1fs"
      !workload !seed r.attempted r.failed
      (Common.ratio (float_of_int r.failed) (float_of_int r.attempted))
      (if r.correct then "outputs correct" else "OUTPUT MISMATCH")
      (Common.clock () -. t0);
    List.iter
      (fun (x : Common.metric) ->
        Printf.printf "%-28s %14.6g %s\n" x.name x.value x.unit_)
      r.metrics;
    Printf.printf "%-28s %14.6g MiB\n" "peak_rss_mb" r.rss_mb;
    Printf.printf "%-28s %14.6g ratio\n" "failed_ratio"
      (Common.ratio (float_of_int r.failed) (float_of_int r.attempted));
    Common.print_result r;
    if not r.correct then exit 1
  end
