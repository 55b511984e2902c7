(** The [adapt] workload: {!Yali.Adapt.Driver} hill searches over rf and lr
    with a large evaluation budget.  One op is one candidate evaluation:
    the candidate's pass sequence is applied to every challenge, each
    result is executed against its baseline behaviour, and the classifier
    oracle scores it — the only workload that executes IR.

    Set-up prepares one independent dataset (snapshots and challenges) per
    repetition; the timed phase repeats {!Yali.Adapt.Driver.search_fronts}
    cycling over them, each call under a new search seed, through the
    [oracle_for] hook (the in-process oracle, wrapped by a span when
    traced), and it ends on a whole cycle.  Cycling matters: the cost of an
    evaluation depends on the challenge programs, and one seed's 24 of them
    are too few to make a run's mean steady.  So do many short searches:
    one search's cost follows its own trajectory. *)

open Common
module A = Yali.Adapt

let config ~seed =
  {
    A.Driver.default with
    a_seed = seed;
    a_classes = 8;
    a_train_per_class = 10;
    a_challenges_per_class = 3;
    a_models = [ "rf"; "lr" ];
    a_algo = A.Search.Hill;
    a_budget = 16;
    a_batch = 4;
  }

let search_seed ~seed k = Hashtbl.hash (seed, "search", k)

(* {!A.Fitness.rejected} marks a candidate that broke behaviour *)
let rejected (e : A.Fitness.eval) = e.e_fitness = Float.neg_infinity

(* -- correctness ----------------------------------------------------------- *)

type audit = {
  ok : bool;
  evals : (Rng.t * A.Fitness.eval) list;  (** each evaluation, with its rng *)
}

(** Re-runs the search of one model of one call with a recording
    evaluator, under the rng derivation of {!A.Driver.search_fronts}
    (search stream [split_ix (make a_seed) 3], model [ix]; should the
    driver change it, the front comparison fails loudly): its front must
    equal the report's, and one sampled front point must re-score
    identically through {!A.Fitness.evaluate}. *)
let audit ~seed (cfg : A.Driver.config) (prep : A.Driver.prepared)
    (report : A.Driver.report) : audit =
  let ix = seed mod List.length prep.p_snapshots in
  let kind, snap = List.nth prep.p_snapshots ix in
  let mf = List.nth report.r_fronts ix in
  let oracle = A.Driver.oracle_of_snapshot snap in
  let evaluate r s =
    A.Fitness.evaluate ~oracle ~lambda:cfg.a_lambda ~fuel:cfg.a_fuel
      prep.p_challenges r s
  in
  let lock = Mutex.create () and seen = ref [] in
  let out =
    A.Search.run cfg.a_algo ~budget:cfg.a_budget ~batch:cfg.a_batch
      ~max_len:cfg.a_max_len
      (Rng.split_ix (Rng.split_ix (Rng.make cfg.a_seed) 3) ix)
      (fun r s ->
        let r0 = Rng.copy r in
        let e = evaluate r s in
        Mutex.protect lock (fun () -> seen := (r0, e) :: !seen);
        e)
  in
  let front = A.Pareto.front out.o_evals in
  let same_front = mf.mf_kind = kind && front = mf.mf_front in
  let rescored =
    match front with
    | [] -> false
    | pts -> (
        let pt = List.nth pts (seed mod List.length pts) in
        match
          List.find_opt (fun (_, e) -> A.Pareto.point_of_eval e = pt) !seen
        with
        | None -> false
        | Some (r, e) ->
            let e' = evaluate (Rng.copy r) e.e_seq in
            e'.e_evasion = e.e_evasion && e'.e_cost = e.e_cost
            && e'.e_gap = e.e_gap && e'.e_fitness = e.e_fitness)
  in
  if not same_front then log "adapt audit: front of %s differs" kind;
  if not rescored then log "adapt audit: front point did not re-score";
  { ok = same_front && rescored; evals = !seen }

(** Replays sampled candidates of the audit span by span: the pass
    sequence on each challenge, then the VM on each challenge's inputs.
    Returns (candidates replayed, total VM steps). *)
let replay ~fuel (prep : A.Driver.prepared) evals : int * int =
  let accepted =
    List.filter (fun (_, (e : A.Fitness.eval)) -> not (rejected e)) evals
    |> Array.of_list
  in
  let n = min 16 (Array.length accepted) in
  let steps = ref 0 in
  for c = 0 to n - 1 do
    let r, (e : A.Fitness.eval) = accepted.(c * Array.length accepted / n) in
    Trace.set_op c;
    Trace.span "op" (fun () ->
        Array.iteri
          (fun i (ch : A.Fitness.challenge) ->
            let m =
              Trace.span "obfuscation.apply" (fun () ->
                  A.Seqspace.apply (Rng.split_ix r i) e.e_seq ch.ch_module)
            in
            Trace.span "vm.run" (fun () ->
                let run = Yali.Execution.prepare m in
                Array.iter
                  (fun input ->
                    let o = run ~fuel:(fuel * 16) input in
                    steps := !steps + o.Yali.Ir.Interp.steps)
                  ch.ch_inputs))
          prep.p_challenges)
  done;
  (n, !steps)

(* -- the timed phase ------------------------------------------------------- *)

type phase = {
  evals : int;
  elapsed : float;
  per_eval_ms : float list;  (** per call: wall / evaluations *)
  malformed : int;  (** fronts that are not well formed *)
  first_report : A.Driver.report option;
  spans : Trace.span list;
  lo : float;
  hi : float;
  cpu_s : float;  (** process CPU seconds of the phase *)
  steals : int;
}

let phase ~traced ~seconds ~first ~seed (preps : A.Driver.prepared array) :
    phase =
  let evals = ref 0 and per_eval = ref [] and malformed = ref 0 in
  let first_report = ref None in
  let oracle_for (prep : A.Driver.prepared) kind =
    let snap = List.assoc kind prep.p_snapshots in
    let base = A.Driver.oracle_of_snapshot snap in
    Some (fun m -> Trace.span "adapt.oracle" (fun () -> base m))
  in
  let steals0 = counter "pool.steals" in
  if traced then Trace.start ();
  let cpu0 = cpu_seconds () in
  let lo = clock () in
  let loop =
    timed_loop ~seconds ~group:(Array.length preps) (fun k ->
        let cfg = config ~seed:(search_seed ~seed (first + k)) in
        let prep = preps.((first + k) mod Array.length preps) in
        let t0 = clock () in
        (* Adapt.Driver hands out no hook finer than the oracle: the
           whole call is the evaluate layer, its time outside the oracle
           spans is adapt.evaluate_s *)
        let report =
          Trace.span "adapt.evaluate" (fun () ->
              A.Driver.search_fronts ~oracle_for:(oracle_for prep) cfg prep)
        in
        let n =
          List.fold_left
            (fun a (f : A.Driver.model_front) -> a + f.mf_evals)
            0 report.r_fronts
        in
        evals := !evals + n;
        per_eval := (1000.0 *. (clock () -. t0) /. float_of_int n) :: !per_eval;
        List.iter
          (fun (f : A.Driver.model_front) ->
            if not (A.Pareto.well_formed f.mf_front) then incr malformed)
          report.r_fronts;
        if !first_report = None then first_report := Some report)
  in
  let hi = clock () in
  let cpu_s = cpu_seconds () -. cpu0 in
  Trace.stop ();
  {
    evals = !evals;
    elapsed = loop.elapsed;
    per_eval_ms = !per_eval;
    malformed = !malformed;
    first_report = !first_report;
    spans = (if traced then Trace.collect () else []);
    lo;
    hi;
    cpu_s;
    steals = counter "pool.steals" - steals0;
  }

let ops_per_s p = float_of_int p.evals /. p.elapsed

(** Every repetition's dataset is kept: the timed phase cycles over them. *)
let setup ~seed =
  let preps = ref [] in
  let (), setup_s =
    repeat_setup ~reps:setup_reps (fun rep ->
        let cfg = config ~seed:(rep_seed ~reps:setup_reps ~seed rep) in
        preps := A.Driver.prepare cfg :: !preps)
  in
  (Array.of_list (List.rev !preps), setup_s)

let run ~seed ~seconds ~trace : result =
  let preps, setup_s = setup ~seed in
  let prep = preps.(0) in
  let check (p : phase) =
    (* the audited call is the phase's first: dataset 0, search seed 0 *)
    let cfg = config ~seed:(search_seed ~seed 0) in
    let a = audit ~seed cfg prep (Option.get p.first_report) in
    (a, a.ok && p.malformed = 0)
  in
  (* warm-up: one search per dataset, under search seeds of its own *)
  Array.iteri
    (fun i prep ->
      let cfg = config ~seed:(search_seed ~seed (warmup_first + i)) in
      ignore (A.Driver.search_fronts cfg prep))
    preps;
  reset_peak_rss ();
  if not trace then begin
    let p = phase ~traced:false ~seconds ~first:0 ~seed preps in
    let rss = peak_rss_mb () in
    let _, ok = check p in
    {
      correct = ok;
      attempted = p.evals;
      failed = p.malformed + (if ok then 0 else 1);
      metrics =
        [
          m "setup_s" "s" setup_s;
          m "ops_per_s" "1/s" (ops_per_s p);
          m "op_ms.p50" "ms" (median p.per_eval_ms);
        ];
      rss_mb = rss;
    }
  end
  else begin
    let half = seconds /. 2.0 in
    let u = phase ~traced:false ~seconds:half ~first:0 ~seed preps in
    let rss = peak_rss_mb () in
    let calls_u = List.length u.per_eval_ms in
    let t = phase ~traced:true ~seconds:half ~first:calls_u ~seed preps in
    let a, ok = check u in
    (* the dataset generation inside [Driver.prepare], timed on its own *)
    let gen_s =
      let cfg = config ~seed in
      let t0 = clock () in
      ignore
        (Yali.Dataset.Poj.make
           (Rng.split_ix (Rng.make seed) 0)
           ~n_classes:cfg.a_classes ~train_per_class:cfg.a_train_per_class
           ~test_per_class:cfg.a_challenges_per_class);
      clock () -. t0
    in
    Trace.start ();
    let n_replay, steps = replay ~fuel:(config ~seed).a_fuel prep a.evals in
    Trace.stop ();
    let replay_spans = Trace.collect () in
    Trace.write
      (Printf.sprintf "perfbench/_out/trace-adapt-%d.jsonl" seed)
      (t.spans @ replay_spans);
    let self = Trace.self_by_name t.spans in
    let rself = Trace.self_by_name replay_spans in
    let per_eval name = ratio (Trace.get self name) (float_of_int t.evals) in
    let per_cand name = ratio (Trace.get rself name) (float_of_int n_replay) in
    let n_rejected =
      List.length (List.filter (fun (_, e) -> rejected e) a.evals)
    in
    {
      correct = ok;
      attempted = u.evals + t.evals;
      failed = u.malformed + t.malformed + (if ok then 0 else 1);
      metrics =
        per_layer
          (trace_summary ~spans:t.spans ~lo:t.lo ~hi:t.hi ~ops:t.evals
             ~busy:(ratio t.cpu_s ((t.hi -. t.lo) *. float_of_int jobs))
          @ [
              ("peak_rss_mb", rss);
              ("dataset.gen_s", gen_s);
              ("adapt.oracle_s", per_eval "adapt.oracle");
              ("adapt.evaluate_s", per_eval "adapt.evaluate");
              ("obfuscation.apply_s", per_cand "obfuscation.apply");
              ("vm.run_s", per_cand "vm.run");
              ("vm.steps", ratio (float_of_int steps) (float_of_int n_replay));
              ( "adapt.reject_ratio",
                ratio (float_of_int n_rejected)
                  (float_of_int (List.length a.evals)) );
              ("exec.pool.steals", float_of_int t.steals);
              ("trace.overhead_ratio", ratio (ops_per_s t) (ops_per_s u));
            ]);
      rss_mb = rss;
    }
  end
