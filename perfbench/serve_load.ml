(** The [serve] workload: a classification daemon serving an [rf] histogram
    snapshot, driven by an open-loop load generator in this process over
    two connections.

    The request mix follows the repository's own replay traffic
    ({!Yali.Serve.Traffic}, as [bench serve] runs it into BENCH_serve.json):
    a pool of 8 classes x 3 programs replayed in a cycle, of which 23
    requests in 200 missed the daemon's embedding cache in that recorded
    run (hit rate 0.885).  Here those misses are pool programs sent under a
    request-unique module name, spread evenly over the stream, so the miss
    share holds over a run of any length.  Every 25th request is the
    mini-C source of a pool program, which the daemon compiles itself; that
    share is not taken from anything measured.  Each request is timed from
    its due time, so a stall also delays the requests behind it; how late
    the generator sends is recorded too.  Every reply must equal the
    in-process prediction of the restored snapshot for that program.

    The timed phase bisects a fixed geometric rate ladder for the highest
    rate whose p99 meets the latency limit with every request answered; a
    window at the nominal rate precedes each bisection step and gives the
    latency percentiles. *)

open Common
module S = Yali.Serve
module E = Yali.Embeddings
module Ml = Yali.Ml
module Poj = Yali.Dataset.Poj

let daemon_flag = "--serve-daemon"

let n_classes = 8
let train_per_class = 10
let pool_per_class = 3 (* bench serve's replay pool: 8 classes x 3 *)
let misses_per_200 = 23 (* BENCH_serve.json: 177 hits, 23 misses *)
let source_every = 25
let nominal_rate = 2000.0
let nominal_share = 0.4 (* of the timed phase *)
let limit_ms = 10.0 (* p99 latency limit of a passing ladder rung *)
(* the ladder reaches down to 25 requests/s, so that even a host slowed
   down several times over finds a passing rung: at 250 requests/s one run
   in a busy spell found none and read 0 *)
let ladder_base = 25.0
let ladder_step = 1.02
let ladder_rungs = 512
let abort_late_ms = 200.0
let max_outstanding = 100 (* per connection; the daemon queues 256 *)
let connections = 2

(** Daemon mode: [--serve-daemon socket registry]. *)
let daemon () =
  let cfg =
    {
      S.Server.socket = Sys.argv.(2);
      registry_dir = Sys.argv.(3);
      model_spec = "rf";
      queue_cap = 256;
      max_batch = 64;
      log = ignore;
    }
  in
  match S.Server.run cfg with
  | Ok () -> exit 0
  | Error msg ->
      prerr_endline ("perfbench daemon: " ^ msg);
      exit 1

(* -- the request pool ---------------------------------------------------- *)

(** One program of the replay pool as its three requests, each a wire
    frame (u32 little-endian length, then the payload) with the class the
    in-process snapshot predicts for it. *)
type entry = {
  frame : Bytes.t;  (** the obfuscated module, as is *)
  expect : int;
  fresh : Bytes.t;  (** the same module under a renamable name *)
  name_at : int;  (** offset of the name's digits in [fresh] *)
  source : Bytes.t;  (** the program's mini-C source *)
  source_expect : int;
}

let fresh_name = "fresh0000000000"
let fresh_digits = 10

let build_pool ~seed (trained : Ml.Model.trained) : entry array * float =
  let t0 = clock () in
  let split =
    Poj.make
      (Rng.make (Hashtbl.hash (seed, "pool")))
      ~n_classes ~train_per_class:pool_per_class ~test_per_class:0
  in
  let gen_s = clock () -. t0 in
  let expect m =
    trained.predict (E.Embedding.to_flat E.Embedding.histogram m)
  in
  let framed payload =
    let len = String.length payload in
    let b = Bytes.create (4 + len) in
    Bytes.set_int32_le b 0 (Int32.of_int len);
    Bytes.blit_string payload 0 b 4 len;
    b
  in
  let binary m =
    framed
      (S.Wire.encode_request
         (Classify { fmt = Binary; blob = S.Codec.encode_module m }))
  in
  let find_name frame =
    let n = String.length fresh_name in
    let rec go i =
      if Bytes.sub_string frame i n = fresh_name then i + n - fresh_digits
      else go (i + 1)
    in
    go 0
  in
  let entry i (l : Poj.labelled) =
    (* requests are obfuscated programs, as the games' challenges are *)
    let m =
      Yali.Obfuscation.Evader.ollvm.apply
        (Rng.make (Hashtbl.hash (seed, "ollvm", i)))
        l.src
    in
    let fresh = binary { m with mname = fresh_name } in
    let blob = Yali.Minic.Pp.program_to_string l.src in
    let compiled =
      Yali.Transforms.Pipeline.optimize Yali.Transforms.Pipeline.O0
        (Yali.Minic.Lower.lower_program (Yali.Minic.Parser.parse_program blob))
    in
    {
      frame = binary m;
      expect = expect m;
      fresh;
      name_at = find_name fresh;
      source = framed (S.Wire.encode_request (Classify { fmt = Minic; blob }));
      source_expect = expect compiled;
    }
  in
  (Array.mapi entry split.train, gen_s)

(** The request stream: each call returns the next request's frame and
    expected class.  Every [source_every]th request is a pool program's
    source; the others replay the pool's modules in a cycle, and
    [misses_per_200] in every 200 of them, evenly spread, send the module
    under a request-unique name instead: new to every content-addressed
    cache, while its code, and so its class, stay the same.  The name is
    patched into the frame in place, so sending allocates nothing. *)
let stream (pool : entry array) : unit -> Bytes.t * int =
  let count = ref 0 and binary = ref 0 in
  let n = Array.length pool in
  fun () ->
    let i = !count in
    incr count;
    if i mod source_every = source_every - 1 then
      let e = pool.(i / source_every mod n) in
      (e.source, e.source_expect)
    else begin
      let j = !binary in
      incr binary;
      let e = pool.(j mod n) in
      if (j + 1) * misses_per_200 / 200 > j * misses_per_200 / 200 then begin
        Bytes.blit_string
          (Printf.sprintf "%0*d" fresh_digits j)
          0 e.fresh e.name_at fresh_digits;
        (e.fresh, e.expect)
      end
      else (e.frame, e.expect)
    end

(* -- daemon lifecycle ----------------------------------------------------- *)

type daemon = { pid : int; socket : string; dir : string }

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* daemons not yet stopped; killed at exit if a run dies on the way *)
let live : daemon list ref = ref []

let () =
  (* also on SIGTERM/SIGINT: exiting runs the at_exit cleanup *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
          rm_rf d.dir)
        !live)

let start_daemon ~dir : daemon =
  let registry = Filename.concat dir "models" in
  let socket = Filename.concat dir "d.sock" in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; daemon_flag; socket; registry |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket; dir } in
  live := d :: !live;
  let rec await tries =
    match S.Client.connect socket with
    | c ->
        let ok = S.Client.ping c in
        S.Client.close c;
        if not ok then failwith "daemon did not answer ping"
    | exception Unix.Unix_error _ ->
        if tries = 0 then failwith "daemon socket never appeared";
        Unix.sleepf 0.005;
        await (tries - 1)
  in
  await 2000;
  d

(** Ask for a clean shutdown; true when the daemon exited 0. *)
let stop_daemon (d : daemon) : bool =
  (try
     let c = S.Client.connect d.socket in
     S.Client.shutdown c;
     S.Client.close c
   with _ -> Unix.kill d.pid Sys.sigterm);
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (fun l -> l.pid <> d.pid) !live;
  rm_rf d.dir;
  status = Unix.WEXITED 0

(* -- set-up --------------------------------------------------------------- *)

type ready = {
  daemon : daemon;
  pool : entry array;
  snapshot : Ml.Model.snapshot;
  gen_s : float;
}

let setup ~seed : ready * float =
  repeat_setup ~reps:setup_reps (fun rep ->
      let seed = rep_seed ~reps:setup_reps ~seed rep in
      let entry =
        match
          S.Registry.train ~seed ~embedding:E.Embedding.histogram ~kind:"rf"
            ~n_classes ~per_class:train_per_class
        with
        | Ok e -> e
        | Error msg -> failwith msg
      in
      let dir =
        Printf.sprintf "perfbench/_out/serve-%d-%d" (Unix.getpid ()) rep
      in
      rm_rf dir;
      Sys.mkdir dir 0o755;
      ignore
        (S.Registry.publish
           ~dir:(Filename.concat dir "models")
           ~meta:entry.meta entry.snapshot);
      let pool, gen_s =
        build_pool ~seed (Ml.Model.restore entry.snapshot)
      in
      let daemon = start_daemon ~dir in
      (* only the last repetition's daemon serves the timed phase *)
      if rep < setup_reps - 1 then ignore (stop_daemon daemon);
      { daemon; pool; snapshot = entry.snapshot; gen_s })

(* -- open-loop load -------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  chunks : S.Wire.Dechunk.t;
  pending : (float * int) Queue.t;  (** due time, expected class; FIFO *)
}

type outcome = {
  aborted : bool;  (** stopped early: the backlog kept growing *)
  sent : int;
  answered : int;
  lat_ms : float list;  (** per answer, from the request's due time *)
  late_ms : float list;  (** per sent request: send time - due time *)
  queue_ms : float list;  (** per answer: the daemon's queue wait *)
  batches : int list;  (** per answer: size of the batch that served it *)
  busy : int;
  errors : int;
  wrong : int;  (** replies that differ from the in-process prediction *)
  span : float;  (** first due time to last reply *)
}

let buf = Bytes.create 65536

let write_all fd b =
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(** Offer [rate] requests/s of the stream [next] for [duration] seconds;
    returns once every sent request is answered. *)
let offer conns ~next ~rate ~duration : outcome =
  let n = max 1 (int_of_float (rate *. duration)) in
  let t0 = clock () in
  let due i = t0 +. (float_of_int i /. rate) in
  let sent = ref 0 and answered = ref 0 in
  let lat = ref [] and late = ref [] and queue = ref [] and batches = ref [] in
  let busy = ref 0 and errors = ref 0 and wrong = ref 0 in
  let last_reply = ref t0 in
  let outstanding () =
    Array.fold_left (fun a c -> a + Queue.length c.pending) 0 conns
  in
  let receive c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "daemon closed the connection"
    | len ->
        let now = clock () in
        List.iter
          (fun frame ->
            let due_t, expect = Queue.pop c.pending in
            incr answered;
            last_reply := now;
            match S.Wire.decode_response frame with
            | Class { cls; queue_us; batch } ->
                lat := (1000.0 *. (now -. due_t)) :: !lat;
                queue := (float_of_int queue_us /. 1000.0) :: !queue;
                batches := batch :: !batches;
                if cls <> expect then incr wrong
            | Busy ->
                (* a refused request misses every latency limit *)
                lat := Float.max_float :: !lat;
                incr busy
            | Error msg ->
                log "daemon error: %s" msg;
                incr errors
            | _ -> incr errors)
          (S.Wire.Dechunk.feed c.chunks buf len)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let aborted = ref false in
  while (!sent < n && not !aborted) || outstanding () > 0 do
    let now = clock () in
    (* a backlog past [abort_late_ms] only grows: stop offering *)
    if !sent < n && now -. due !sent > abort_late_ms /. 1000.0 then
      aborted := true;
    (* send everything due, unless the connection's window is full: then
       the generator runs late and the lateness shows in the latencies *)
    let rec send_due () =
      if !sent < n && (not !aborted) && due !sent <= now then begin
        let c = conns.(!sent mod Array.length conns) in
        if Queue.length c.pending < max_outstanding then begin
          let frame, expect = next () in
          Queue.push (due !sent, expect) c.pending;
          write_all c.fd frame;
          late := (1000.0 *. (clock () -. due !sent)) :: !late;
          incr sent;
          send_due ()
        end
      end
    in
    send_due ();
    let wait =
      if !sent < n && not !aborted then Float.max 0.0 (due !sent -. clock ())
      else 0.05
    in
    let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    match Unix.select fds [] [] wait with
    | ready, _, _ ->
        Array.iter (fun c -> if List.mem c.fd ready then receive c) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  {
    aborted = !aborted;
    sent = !sent;
    answered = !answered;
    lat_ms = !lat;
    late_ms = !late;
    queue_ms = !queue;
    batches = !batches;
    busy = !busy;
    errors = !errors;
    wrong = !wrong;
    span = !last_reply -. t0;
  }

let p99 o = quantile o.lat_ms 0.99

(** The median of the nominal windows' p99s: a busy spell of the shared
    machine moves one window, not the figure. *)
let windowed_p99 (ws : outcome list) = median (List.map p99 ws)

let passes o =
  (not o.aborted) && o.busy = 0 && o.errors = 0 && o.answered = o.sent
  && p99 o <= limit_ms

(* -- stats of the daemon -------------------------------------------------- *)

(** The number after ["key": ] in a flat scan of [json] (first match). *)
let json_num json key =
  let pat = Printf.sprintf "\"%s\": " key in
  let lp = String.length pat in
  let rec find i =
    if i + lp > String.length json then None
    else if String.sub json i lp = pat then
      let j = ref (i + lp) in
      while
        !j < String.length json
        &&
        match json.[!j] with
        | '0' .. '9' | '.' | '-' | 'e' -> true
        | _ -> false
      do
        incr j
      done;
      float_of_string_opt (String.sub json (i + lp) (!j - i - lp))
    else find (i + 1)
  in
  Option.value ~default:0.0 (find 0)

let daemon_stats (d : daemon) =
  let c = S.Client.connect d.socket in
  Fun.protect
    ~finally:(fun () -> S.Client.close c)
    (fun () ->
      match S.Client.stats c with Ok j -> j | Error e -> failwith e)

type load = {
  nominal : outcome list;  (** one window before each ladder step *)
  probes : (float * outcome) list;  (** offered rate, outcome *)
  best : float;  (** achieved rate at the highest passing rung *)
}

let rung r = ladder_base *. (ladder_step ** float_of_int r)
let ladder_steps =
  int_of_float (Float.ceil (Float.log2 (float_of_int ladder_rungs)))

(** Bisection over the ladder, [ladder_steps] steps, each preceded by a
    window at the nominal rate: spread over the whole phase, the nominal
    windows do not all land in one busy spell of the shared machine. *)
let drive (d : daemon) ~next ~seconds : load =
  let conns =
    Array.init connections (fun _ ->
        let fd = S.Client.fd (S.Client.connect d.socket) in
        { fd; chunks = S.Wire.Dechunk.create (); pending = Queue.create () })
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun c -> Unix.close c.fd) conns)
    (fun () ->
      let steps = float_of_int ladder_steps in
      let window_s = seconds *. nominal_share /. steps in
      (* each rung is decided by two probes, and a third when they
         disagree: one busy spell of the shared machine does not decide
         the search *)
      let probe_s = seconds *. (1.0 -. nominal_share) /. (2.5 *. steps) in
      let probe rate probes =
        let o = offer conns ~next ~rate ~duration:probe_s in
        log "probe %.0f/s: %s, p99 %.2f ms, %d sent" rate
          (if passes o then "pass" else "fail") (p99 o) o.sent;
        (o, (rate, o) :: probes)
      in
      let decide rate probes =
        let a, probes = probe rate probes in
        let b, probes = probe rate probes in
        let votes, probes =
          if passes a = passes b then ([ a; b ], probes)
          else
            let c, probes = probe rate probes in
            ([ a; b; c ], probes)
        in
        match List.filter passes votes with
        | _ :: _ :: _ as ok ->
            let rate o = float_of_int o.answered /. o.span in
            (Some (median (List.map rate ok)), probes)
        | _ -> (None, probes)
      in
      let rec bisect lo hi nominal probes best =
        if hi - lo <= 1 then (nominal, probes, best)
        else
          let w = offer conns ~next ~rate:nominal_rate ~duration:window_s in
          let mid = (lo + hi) / 2 in
          match decide (rung mid) probes with
          | Some got, probes -> bisect mid hi (w :: nominal) probes got
          | None, probes -> bisect lo mid (w :: nominal) probes best
      in
      let nominal, probes, best = bisect (-1) ladder_rungs [] [] 0.0 in
      { nominal = List.rev nominal; probes = List.rev probes; best })

let sum f l =
  List.fold_left (fun a o -> a + f o) 0 (l.nominal @ List.map snd l.probes)

(* -- in-process replay (traced run) ---------------------------------------- *)

(** Replays [n] requests of the stream through the request path's layers
    in this process — decode, verify, embed, predict — and checks each
    against the pool's expected class. *)
let replay (r : ready) ~next ~n : int =
  let trained = Ml.Model.restore r.snapshot in
  let wrong = ref 0 in
  for k = 0 to n - 1 do
    Trace.set_op k;
    let frame, expect = next () in
    Trace.span "op" (fun () ->
        let m =
          Trace.span "serve.decode" (fun () ->
              match
                S.Wire.decode_request
                  (Bytes.sub_string frame 4 (Bytes.length frame - 4))
              with
              | Classify { fmt = Binary; blob } -> S.Codec.decode_module blob
              | Classify { fmt = Minic; blob } ->
                  Yali.Transforms.Pipeline.optimize Yali.Transforms.Pipeline.O0
                    (Yali.Minic.Lower.lower_program
                       (Yali.Minic.Parser.parse_program blob))
              | _ -> failwith "replay: unexpected request")
        in
        let errs =
          Trace.span "ir.verify" (fun () -> Yali.Ir.Verify.check_module m)
        in
        if errs <> [] then incr wrong;
        let v =
          Trace.span "embeddings.embed" (fun () ->
              E.Embedding.to_flat E.Embedding.histogram m)
        in
        if Trace.span "ml.predict" (fun () -> trained.predict v) <> expect then
          incr wrong)
  done;
  !wrong

(* -- the workload ---------------------------------------------------------- *)

let run ~seed ~seconds ~trace : result =
  let r, setup_s = setup ~seed in
  let next = stream r.pool in
  let cpu0 = cpu_seconds ~pid:r.daemon.pid () and t0 = clock () in
  let l = drive r.daemon ~next ~seconds in
  (* the daemon runs on one domain *)
  let daemon_busy =
    ratio (cpu_seconds ~pid:r.daemon.pid () -. cpu0) (clock () -. t0)
  in
  let finish metrics =
    let stats = daemon_stats r.daemon in
    let rss = peak_rss_mb ~pid:(string_of_int r.daemon.pid) () in
    let clean = stop_daemon r.daemon in
    let wrong = sum (fun o -> o.wrong) l in
    let errors = sum (fun o -> o.errors) l in
    if not clean then log "daemon did not shut down cleanly";
    {
      correct = wrong = 0 && errors = 0 && clean;
      attempted = sum (fun o -> o.sent) l;
      failed = wrong + errors + sum (fun o -> o.busy) l;
      metrics = metrics ~stats ~rss;
      rss_mb = rss;
    }
  in
  if not trace then
    finish (fun ~stats:_ ~rss:_ ->
        [
          m "setup_s" "s" setup_s;
          m "ops_per_s" "1/s" l.best;
          m "op_ms.p50" "ms"
            (median (List.concat_map (fun o -> o.lat_ms) l.nominal));
        ])
  else begin
    let n_replay = 2000 in
    let t0 = clock () in
    let wrong_u = replay r ~next ~n:n_replay in
    let untraced_s = clock () -. t0 in
    Trace.start ();
    let lo = clock () in
    let wrong_t = replay r ~next ~n:n_replay in
    let hi = clock () in
    Trace.stop ();
    let replay_wrong = wrong_u + wrong_t in
    let spans = Trace.collect () in
    Trace.write
      (Printf.sprintf "perfbench/_out/trace-serve-%d.jsonl" seed)
      spans;
    let self = Trace.self_by_name spans in
    let per_op name = ratio (Trace.get self name) (float_of_int n_replay) in
    let res =
      finish (fun ~stats ~rss ->
          let hits = json_num stats "hits" in
          let misses = json_num stats "misses" in
          let queue = List.concat_map (fun o -> o.queue_ms) l.nominal in
          let batches = List.concat_map (fun o -> o.batches) l.nominal in
          per_layer
            (trace_summary ~spans ~lo ~hi ~ops:n_replay ~busy:daemon_busy
            @ [
                ("peak_rss_mb", rss);
                ("serve.decode_s", per_op "serve.decode");
                ("ir.verify_s", per_op "ir.verify");
                ("embeddings.embed_s", per_op "embeddings.embed");
                ("ml.predict_s", per_op "ml.predict");
                ("exec.cache.embed.hit_ratio", ratio hits (hits +. misses));
                ("serve.request_ms.p99", windowed_p99 l.nominal);
                ("serve.queue_wait_ms.p50", quantile queue 0.5);
                ("serve.queue_wait_ms.p99", quantile queue 0.99);
                ( "serve.batch_mean",
                  ratio
                    (float_of_int (List.fold_left ( + ) 0 batches))
                    (float_of_int (List.length batches)) );
                ("serve.busy_replies", json_num stats "busy");
                ( "serve.loadgen.late_ms.p99",
                  quantile
                    (List.concat_map (fun o -> o.late_ms) l.nominal)
                    0.99 );
                ("dataset.gen_s", r.gen_s);
                ("trace.overhead_ratio", ratio untraced_s (hi -. lo));
              ]))
    in
    {
      res with
      correct = res.correct && replay_wrong = 0;
      failed = res.failed + replay_wrong;
      attempted = res.attempted + (2 * n_replay);
    }
  end
