(** The two game workloads.

    [game-flat]: Game 3 grid rows as in the paper's Figure 11.  One op is one
    row: the evader's challenges and the -O3-normalised training side are
    built once ({!Yali.Games.Arena.build_modules}), embedded with the
    histogram ({!Yali.Games.Arena.embed_fmat}), and each of the six flat
    models trains and predicts on them.  Rows cycle over four evaders, and
    the timed phase ends on a whole cycle so every run has the same mix.

    [game-graph]: Game 1 against the ollvm evader, one
    {!Yali.Games.Arena.run_graph} cell per op, alternating the programl and
    cdfg embeddings: the dgcnn graph convolution dominates.

    Every op draws a fresh dataset split, so the lowering and embedding
    caches only hit on programs that really repeat. *)

open Common
module G = Yali.Games
module E = Yali.Embeddings
module Ml = Yali.Ml
module Ob = Yali.Obfuscation
module Poj = Yali.Dataset.Poj

type sizes = {
  classes : int;
  train_per_class : int;
  test_per_class : int;
  pregen : int;  (** splits generated during set-up *)
}

let flat_sizes =
  { classes = 12; train_per_class = 8; test_per_class = 4; pregen = 160 }

let graph_sizes =
  { classes = 6; train_per_class = 6; test_per_class = 3; pregen = 120 }

let flat_evaders =
  Ob.Evader.[| ollvm; bcf; fla; sub |]

let graph_embeddings = [| E.Embedding.programl; E.Embedding.cdfg |]

(* -- wrappers: the closure records the arena accepts, timed from outside -- *)

let wrap_tx name f rng p = Trace.span name (fun () -> f rng p)

let wrap_setup (s : G.Game.setup) : G.Game.setup =
  {
    s with
    train_tx = wrap_tx "minic.lower" s.train_tx;
    challenge_tx = wrap_tx "obfuscation.apply" s.challenge_tx;
  }

let wrap_embedding (e : E.Embedding.t) : E.Embedding.t =
  let timed f m = Trace.span "embeddings.embed" (fun () -> f m) in
  match e.kind with
  | Flat f -> { e with kind = Flat (timed f) }
  | Graphed f -> { e with kind = Graphed (timed f) }

let wrap_model (mdl : Ml.Model.flat) : Ml.Model.flat =
  {
    mdl with
    ftrain =
      (fun rng ~n_classes x ys ->
        let t =
          Trace.span ("ml.train." ^ mdl.fname) (fun () ->
              mdl.ftrain rng ~n_classes x ys)
        in
        {
          t with
          predict_batch =
            (fun x -> Trace.span "ml.predict" (fun () -> t.predict_batch x));
        });
  }

let normalizer =
  let o3 = Yali.Transforms.Pipeline.o3 in
  fun m -> Trace.span "transforms.normalize" (fun () -> o3 m)

(* -- datasets ------------------------------------------------------------- *)

let split_of (sz : sizes) ~seed k : Poj.split =
  Poj.make
    (Rng.make (Hashtbl.hash (seed, "split", k)))
    ~n_classes:sz.classes ~train_per_class:sz.train_per_class
    ~test_per_class:sz.test_per_class

type data = { seed : int; splits : Poj.split array; gen_s : float }

(** Set-up: generate the first [pregen] splits, more than a run at
    today's speed uses.  Ops past them generate their split inline. *)
let setup (sz : sizes) ~seed : data * float =
  repeat_setup ~reps:setup_reps (fun rep ->
      let seed = rep_seed ~reps:setup_reps ~seed rep in
      let t0 = clock () in
      let splits = Array.init sz.pregen (split_of sz ~seed) in
      { seed; splits; gen_s = clock () -. t0 })

let split_for sz (d : data) k =
  if k < Array.length d.splits then d.splits.(k)
  else split_of sz ~seed:d.seed k

let op_rng (d : data) k = Rng.make (Hashtbl.hash (d.seed, "op", k))

let eval_predictions ~n_classes truth pred =
  ( Ml.Metrics.accuracy truth pred,
    Ml.Metrics.macro_f1 (Ml.Metrics.confusion ~n_classes truth pred) )

(* -- game-flat ------------------------------------------------------------ *)

type rf_sample = {
  s_rng : Rng.t;
  s_x : Ml.Fmat.t;
  s_y : int array;
  s_test : Ml.Fmat.t;
  s_pred : int array;
}

let flat_models = List.map wrap_model Ml.Model.all_flat

(** One Figure 11 row; returns the rf inputs and predictions. *)
let flat_row (d : data) k : rf_sample =
  let sz = flat_sizes in
  let n_classes = sz.classes in
  let ev = flat_evaders.(k mod Array.length flat_evaders) in
  let setup = wrap_setup (G.Game.game3 ~normalizer ev) in
  let emb = wrap_embedding E.Embedding.histogram in
  let split = split_for sz d k in
  let rng = op_rng d k in
  let train_mods, test_mods =
    Trace.span "games.build_modules" (fun () ->
        G.Arena.build_modules (Rng.split rng) setup split)
  in
  let xs =
    Trace.span "games.embed_fmat" (fun () -> G.Arena.embed_fmat emb train_mods)
  in
  let xt =
    Trace.span "games.embed_fmat" (fun () -> G.Arena.embed_fmat emb test_mods)
  in
  let ys = Array.map snd train_mods in
  let model_rng = Rng.split rng in
  let sample = ref None in
  List.iter
    (fun (mdl : Ml.Model.flat) ->
      let trained = mdl.ftrain (Rng.copy model_rng) ~n_classes xs ys in
      let pred = trained.predict_batch xt in
      if Array.exists (fun c -> c < 0 || c >= n_classes) pred then
        failwith (mdl.fname ^ ": prediction out of range");
      if mdl.fname = "rf" then
        sample :=
          Some
            {
              s_rng = Rng.copy model_rng;
              s_x = xs;
              s_y = ys;
              s_test = xt;
              s_pred = pred;
            })
    flat_models;
  Option.get !sample

(** The sampled row's rf predictions must equal the frozen reference
    forest's, trained on the same rows under the same rng. *)
let check_rf (s : rf_sample) : bool =
  let f =
    Ml.Reference.Random_forest.train s.s_rng ~n_classes:flat_sizes.classes
      (Ml.Fmat.to_rows s.s_x) s.s_y
  in
  Array.map (Ml.Reference.Random_forest.predict f) (Ml.Fmat.to_rows s.s_test)
  = s.s_pred

(* -- game-graph ----------------------------------------------------------- *)

type graph_sample = {
  g_rng : Rng.t;
  g_emb : E.Embedding.t;
  g_split : Poj.split;
  g_result : G.Arena.result;
}

let graph_setup = G.Game.game1 Ob.Evader.ollvm

let graph_cell (d : data) k : G.Arena.result * graph_sample =
  let sz = graph_sizes in
  let emb = graph_embeddings.(k mod Array.length graph_embeddings) in
  let split = split_for sz d k in
  let rng = op_rng d k in
  let r =
    Trace.span "games.run_graph" (fun () ->
        G.Arena.run_graph (Rng.copy rng) ~n_classes:sz.classes
          (wrap_embedding emb) (wrap_setup graph_setup) split)
  in
  (r, { g_rng = rng; g_emb = emb; g_split = split; g_result = r })

(** Replays the sampled cell on the same modules, graphs and rng: the
    kernelized dgcnn ({!Ml.Model.dgcnn}, as {!G.Arena.run_graph} trains it)
    must reproduce the cell's accuracy and F1, and predict every test
    program exactly as the frozen per-graph reference dgcnn does. *)
let check_dgcnn (s : graph_sample) : bool =
  let n_classes = graph_sizes.classes in
  let rng = Rng.copy s.g_rng in
  let train_mods, test_mods =
    G.Arena.build_modules (Rng.split rng) graph_setup s.g_split
  in
  let graph m = E.Embedding.to_graph s.g_emb m in
  let graphs = Array.map (fun (m, _) -> graph m) train_mods in
  let ys = Array.map snd train_mods in
  let feat_dim = graphs.(0).E.Graph.feat_dim in
  let train_rng = Rng.split rng in
  let kernel =
    Ml.Model.dgcnn.gtrain (Rng.copy train_rng) ~n_classes ~feat_dim graphs ys
  in
  let reference =
    Ml.Reference.Dgcnn.train train_rng ~n_classes ~feat_dim graphs ys
  in
  let tests = Array.map (fun (m, _) -> graph m) test_mods in
  let pred = Array.map kernel.gpredict tests in
  let acc, f1 = eval_predictions ~n_classes (Array.map snd test_mods) pred in
  let same_cell = acc = s.g_result.accuracy && f1 = s.g_result.f1 in
  let same_pred = pred = Array.map (Ml.Dgcnn.predict reference) tests in
  if not same_cell then log "game-graph check: replayed cell differs";
  if not same_pred then log "game-graph check: predictions differ from the reference";
  same_cell && same_pred

(* -- the timed phases ----------------------------------------------------- *)

type phase = {
  loop : loop;
  failed : int;
  cpu_s : float;  (** process CPU seconds of the phase *)
  spans : Trace.span list;
  lo : float;
  hi : float;
  cache_before : (string * int) list;
  cache_after : (string * int) list;
  steals : int;
  results : G.Arena.result list;  (** game-graph cells *)
}

(** The arena's own telemetry spans taken into the trace: the dgcnn's
    training and its predictions, inside {!G.Arena.run_graph}. *)
let lib_spans = [ ("arena.train", "ml.train.dgcnn"); ("arena.predict", "ml.predict") ]

(** Run ops [first], [first+1], ... for [seconds] in whole groups; an op
    that raises counts as failed. *)
let phase ~traced ~seconds ~group ~first (op : int -> G.Arena.result option) :
    phase =
  let failed = ref 0 and results = ref [] in
  let cache_before = cache_snapshot () in
  let steals0 = counter "pool.steals" in
  if traced then Trace.start ~lib:lib_spans ();
  let cpu0 = cpu_seconds () in
  let lo = clock () in
  let loop =
    timed_loop ~seconds ~group (fun k ->
        match op (first + k) with
        | Some r -> results := r :: !results
        | None -> ()
        | exception e ->
            log "op %d failed: %s" (first + k) (Printexc.to_string e);
            incr failed)
  in
  let hi = clock () in
  let cpu_s = cpu_seconds () -. cpu0 in
  Trace.stop ();
  {
    loop;
    failed = !failed;
    cpu_s;
    spans = (if traced then Trace.collect () else []);
    lo;
    hi;
    cache_before;
    cache_after = cache_snapshot ();
    steals = counter "pool.steals" - steals0;
    results = !results;
  }

let ops_per_s p = float_of_int p.loop.ops /. p.loop.elapsed

let layer_metrics ~(p : phase) ~(untraced : phase) ~(d : data) :
    (string * float) list =
  let self = Trace.self_by_name p.spans in
  let ops = float_of_int p.loop.ops in
  let per_op name = ratio (Trace.get self name) ops in
  let dgcnn_s =
    List.fold_left
      (fun a (r : G.Arena.result) -> a +. r.train_seconds)
      0.0 p.results
  in
  let dgcnn_rows =
    List.fold_left (fun a (r : G.Arena.result) -> a + r.n_train) 0 p.results
  in
  trace_summary ~spans:p.spans ~lo:p.lo ~hi:p.hi ~ops:p.loop.ops
    ~busy:(ratio p.cpu_s ((p.hi -. p.lo) *. float_of_int jobs))
  @ List.map
      (fun (mdl : Ml.Model.flat) ->
        ("ml.train_s." ^ mdl.fname, per_op ("ml.train." ^ mdl.fname)))
      Ml.Model.all_flat
  @ [
      ("ml.train_s.dgcnn", ratio dgcnn_s ops);
      ("ml.train_rows_per_s.dgcnn", ratio (float_of_int dgcnn_rows) dgcnn_s);
      ("ml.predict_s", per_op "ml.predict");
      ("transforms.normalize_s", per_op "transforms.normalize");
      ("minic.lower_s", per_op "minic.lower");
      ("obfuscation.apply_s", per_op "obfuscation.apply");
      ("embeddings.embed_s", per_op "embeddings.embed");
      ( "exec.cache.embed.hit_ratio",
        hit_ratio ~before:p.cache_before ~after:p.cache_after
          [ "embed.flat"; "embed.graph" ] );
      ( "exec.cache.lower.hit_ratio",
        hit_ratio ~before:p.cache_before ~after:p.cache_after
          [ "game.lower" ] );
      ("dataset.gen_s", d.gen_s);
      ("exec.pool.steals", float_of_int p.steals);
      ("trace.overhead_ratio", ratio (ops_per_s p) (ops_per_s untraced));
    ]

let run_game ~name ~seed ~seconds ~trace ~sizes ~group
    ~(op : data -> int -> G.Arena.result option) ~(check : unit -> bool) :
    result =
  let d, setup_s = setup sizes ~seed in
  (* one group of warm-up ops on inputs of their own, so the timed ops
     stay cold *)
  for k = warmup_first to warmup_first + group - 1 do
    ignore (op d k)
  done;
  reset_peak_rss ();
  let finish (p : phase) ~rss metrics =
    let ok = check () in
    {
      correct = ok && p.failed = 0;
      attempted = p.loop.ops;
      failed = p.failed + (if ok then 0 else 1);
      metrics;
      rss_mb = rss;
    }
  in
  if not trace then begin
    let p = phase ~traced:false ~seconds ~group ~first:0 (op d) in
    finish p ~rss:(peak_rss_mb ())
      [
        m "setup_s" "s" setup_s;
        m "ops_per_s" "1/s" (ops_per_s p);
        m "op_ms.p50" "ms" (1000.0 *. median p.loop.lat);
      ]
  end
  else begin
    let half = seconds /. 2.0 in
    let u = phase ~traced:false ~seconds:half ~group ~first:0 (op d) in
    let rss = peak_rss_mb () in
    (* the traced half continues with fresh ops, so nothing it runs was
       cached by the untraced half *)
    let t = phase ~traced:true ~seconds:half ~group ~first:u.loop.ops (op d) in
    Trace.write
      (Printf.sprintf "perfbench/_out/trace-%s-%d.jsonl" name seed)
      t.spans;
    let r =
      finish t ~rss
        (per_layer (("peak_rss_mb", rss) :: layer_metrics ~p:t ~untraced:u ~d))
    in
    {
      r with
      correct = r.correct && u.failed = 0;
      attempted = u.loop.ops + t.loop.ops;
      failed = r.failed + u.failed;
    }
  end

let game_flat ~seed ~seconds ~trace =
  let sampled = ref None in
  let k_sample = seed mod Array.length flat_evaders in
  run_game ~name:"game-flat" ~seed ~seconds ~trace ~sizes:flat_sizes
    ~group:(Array.length flat_evaders)
    ~op:(fun d k ->
      let s = flat_row d k in
      if k = k_sample then sampled := Some s;
      None)
    ~check:(fun () ->
      match !sampled with Some s -> check_rf s | None -> false)

let game_graph ~seed ~seconds ~trace =
  let sampled = ref None in
  let k_sample = seed mod Array.length graph_embeddings in
  run_game ~name:"game-graph" ~seed ~seconds ~trace ~sizes:graph_sizes
    ~group:(Array.length graph_embeddings)
    ~op:(fun d k ->
      let r, s = graph_cell d k in
      if k = k_sample then sampled := Some s;
      Some r)
    ~check:(fun () ->
      match !sampled with Some s -> check_dgcnn s | None -> false)
