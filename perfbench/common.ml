(** Shared plumbing of the workloads: results, timing loops, quantiles,
    memory readings. *)

module Rng = Yali.Rng

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  rss_mb : float;
      (** peak RSS of the program under test over the untraced timed
          phase: printed, and a per-layer metric of the traced run *)
}

let m name unit_ value = { name; value; unit_ }
let clock = Trace.clock

(** The timed phases run {!Yali.Exec.Pool} on two domains (at most
    [nproc]): on one, a run is at the mercy of one virtual core, and the
    run-to-run spread of game-flat's ops_per_s grew from 6% to 18%.
    Set-up, warm-up, checks and the serve daemon run on one. *)
let jobs = min 2 (Domain.recommended_domain_count ())

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(** Linear-interpolated quantile of an unsorted sample; 0 when empty. *)
let quantile (xs : float list) (q : float) : float =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let ratio a b = if b > 0.0 then a /. b else 0.0

(** Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?(pid = "self") () : float =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith "no VmHWM line in /proc status"
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      go ())

(** Reset this process's VmHWM to its current resident set, so that a
    later {!peak_rss_mb} reads the peak of what runs in between. *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc "5")

(** CPU seconds of a process (user + system, all its threads): this one's
    from [times], another's ([pid]) from [/proc/<pid>/stat] in clock ticks
    of 1/100 s. *)
let cpu_seconds ?pid () : float =
  match pid with
  | None ->
      let t = Unix.times () in
      t.tms_utime +. t.tms_stime
  | Some pid ->
      let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
      let line =
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
            input_line ic)
      in
      (* the fields after the parenthesised command name; utime and stime
         are the 12th and 13th of them *)
      let from = String.rindex line ')' + 2 in
      let f =
        Array.of_list
          (String.split_on_char ' '
             (String.sub line from (String.length line - from)))
      in
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(** [repeat_setup ~reps f] runs [f rep] for rep = 0 .. reps-1 and returns
    the last value (the others are dropped as soon as the next one starts)
    with the median wall time of the repetitions.  Each repetition must
    draw its inputs from [rep], so none of them finds the previous one's
    work in a cache, and starts from a collected heap. *)
let repeat_setup ~reps (f : int -> 'a) : 'a * float =
  let rec go rep last times =
    if rep = reps then (Option.get last, median times)
    else begin
      Gc.full_major ();
      let t0 = clock () in
      let v = f rep in
      go (rep + 1) (Some v) ((clock () -. t0) :: times)
    end
  in
  go 0 None []

(** The seed of setup repetition [rep]: the last repetition, whose products
    the timed phase uses, runs on [seed] itself. *)
let rep_seed ~reps ~seed rep =
  if rep = reps - 1 then seed else Hashtbl.hash (seed, "setup", rep)

let setup_reps = 9

type loop = {
  ops : int;
  elapsed : float;
  lat : float list;  (** per-op wall seconds *)
}

(** Run [op k] for k = 0, 1, ... in whole groups of [group] until [seconds]
    have passed, on [jobs] domains. *)
let timed_loop ~seconds ~group (op : int -> unit) : loop =
  Yali.Exec.Pool.with_jobs jobs @@ fun () ->
  let t0 = clock () in
  let rec go k lat =
    if k mod group = 0 && clock () -. t0 >= seconds then
      { ops = k; elapsed = clock () -. t0; lat }
    else begin
      let s = clock () in
      Trace.set_op k;
      Trace.span "op" (fun () -> op k);
      go (k + 1) ((clock () -. s) :: lat)
    end
  in
  go 0 []

(** Op indices of the warm-ups: far past any timed op. *)
let warmup_first = 1_000_000

let counter = Yali.Exec.Telemetry.counter

(** Telemetry counters [cache.<name>.hits/.misses] as a hit ratio of the
    probes between two snapshots. *)
let hit_ratio ~before ~after names =
  let sum suffix snap =
    List.fold_left
      (fun acc n ->
        acc + List.assoc (Printf.sprintf "cache.%s.%s" n suffix) snap)
      0 names
  in
  let d suffix = float_of_int (sum suffix after - sum suffix before) in
  ratio (d "hits") (d "hits" +. d "misses")

let cache_snapshot () =
  List.concat_map
    (fun n ->
      List.map
        (fun s ->
          let k = Printf.sprintf "cache.%s.%s" n s in
          (k, counter k))
        [ "hits"; "misses" ])
    [ "embed.flat"; "embed.graph"; "game.lower" ]

(** The per-layer metrics every workload reports, keyed by name, with the
    unit; a workload fills in those its layers reach and the rest read 0
    (the layer did no work there). *)
let per_layer_units =
  [
    ("ml.train_s.dgcnn", "s/op");
    ("ml.train_rows_per_s.dgcnn", "1/s");
    ("ml.train_s.rf", "s/op");
    ("ml.train_s.svm", "s/op");
    ("ml.train_s.knn", "s/op");
    ("ml.train_s.lr", "s/op");
    ("ml.train_s.mlp", "s/op");
    ("ml.train_s.cnn", "s/op");
    ("ml.predict_s", "s/op");
    ("transforms.normalize_s", "s/op");
    ("minic.lower_s", "s/op");
    ("obfuscation.apply_s", "s/op");
    ("embeddings.embed_s", "s/op");
    ("exec.cache.embed.hit_ratio", "ratio");
    ("exec.cache.lower.hit_ratio", "ratio");
    ("serve.decode_s", "s/op");
    ("ir.verify_s", "s/op");
    ("serve.request_ms.p99", "ms");
    ("serve.queue_wait_ms.p50", "ms");
    ("serve.queue_wait_ms.p99", "ms");
    ("serve.batch_mean", "count");
    ("serve.busy_replies", "count");
    ("serve.loadgen.late_ms.p99", "ms");
    ("adapt.oracle_s", "s/op");
    ("adapt.evaluate_s", "s/op");
    ("vm.run_s", "s/op");
    ("vm.steps", "count/op");
    ("adapt.reject_ratio", "ratio");
    ("dataset.gen_s", "s");
    ("exec.pool.busy_ratio", "ratio");
    ("exec.pool.steals", "count");
    ("trace.attributed_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("peak_rss_mb", "MiB");
    ("bench.op_self_s", "s/op");
    ("games.build_modules.self_s", "s/op");
    ("games.embed_fmat.self_s", "s/op");
    ("games.run_graph.self_s", "s/op");
  ]

let per_layer (values : (string * float) list) : metric list =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n per_layer_units) then
        invalid_arg ("unknown per-layer metric " ^ n))
    values;
  List.map
    (fun (n, u) -> m n u (Option.value ~default:0.0 (List.assoc_opt n values)))
    per_layer_units

(** The benchmark's own grouping spans: the op, and the arena calls whose
    parts are measured by the layer spans inside them.  Every other span
    is a layer span and feeds a per-layer metric. *)
let groups =
  [ "op"; "games.build_modules"; "games.embed_fmat"; "games.run_graph" ]

let layer name = not (List.mem name groups)

(** The trace-derived metrics shared by every workload: the share of the
    traced phase's wall time during which some domain was inside a layer
    span; the unattributed rest, per grouping span (its time outside every
    layer span, per op) and for the benchmark's own loop; and [busy]. *)
let trace_summary ~spans ~lo ~hi ~ops ~busy : (string * float) list =
  let wall = hi -. lo in
  let per_op x = ratio x (float_of_int ops) in
  let attributed = Trace.attributed ~layer ~lo ~hi spans in
  let rem = Trace.remainders ~layer spans in
  let named = List.filter (fun n -> n <> "op") groups in
  let own =
    wall -. attributed
    -. List.fold_left (fun a n -> a +. Trace.get rem n) 0.0 named
  in
  log "traced %.2fs: %.1f%% inside layer spans; unattributed: %s, %.3fs in \
       the benchmark's own loop"
    wall (100.0 *. ratio attributed wall)
    (String.concat ", "
       (List.map (fun n -> Printf.sprintf "%s %.3fs" n (Trace.get rem n)) named))
    own;
  [
    ("trace.attributed_ratio", ratio attributed wall);
    ("exec.pool.busy_ratio", busy);
    ("bench.op_self_s", per_op own);
  ]
  @ List.map (fun n -> (n ^ ".self_s", per_op (Trace.get rem n))) named

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result (r : result) =
  let metrics =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_float x.value) x.unit_)
         r.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    r.correct r.attempted r.failed metrics
