(* Fixed-work benchmark of robustpath: the two paper runs (PMO2 leaf
   redesign, PMO2 Geobacter flux search), an LP sweep and a robustness
   screen, at one domain.  One run sets a workload up several times, then
   repeats identical rounds of fixed work for --seconds, checks the
   outputs against computations made apart from the program, and prints
   its metrics as one JSON line.  See README.md for the workloads, the
   metrics and the timing method. *)

let now = Obs.Clock.now_ns

(* {1 Workload sizes} *)

(* Photo and geobacter rounds are PMO2 runs of the paper-run shape (20
   generations, population 16).  One photo run's cost per evaluation moves
   by about 17% with its seed, so a photo round is three runs with seeds
   drawn from the workload seed.  The other rounds are sized so that a
   12 s run holds at least two of them. *)
let photo_runs = 3
let photo_generations = 20
let photo_pop = 16
let geo_generations = 20
let geo_pop = 16
let lp_single = 120    (* single-knockout candidates *)
let lp_pair = 8        (* pair-knockout candidates: 28 pairs *)
let lp_levels = 8      (* epsilon-constraint biomass levels, evenly in [0.25, 0.30] *)
let lp_floor = 0.283   (* knockout biomass floor, low end of Figure 4 *)
let robust_designs = 6 (* the natural leaf and five fixed designs *)
let robust_global = 200
let robust_local = 2   (* trials per enzyme *)
let islands = Pmo2.Archipelago.default_config.Pmo2.Archipelago.n_islands

(* {1 Per-layer accounting} *)

(* Set while a traced round runs: timed calls then keep samples. *)
let traced = ref false
let samples : (string, float list) Hashtbl.t = Hashtbl.create 16
let totals : (string, float) Hashtbl.t = Hashtbl.create 16
let total name = Option.value ~default:0. (Hashtbl.find_opt totals name)
let add_total name s = Hashtbl.replace totals name (total name +. s)

(* One call into a layer, timed without the reference readings that
   interrupted it. *)
let timed clock name f =
  Obs.Span.with_span name (fun () ->
      let t0 = now () and r0 = Refclock.read_ns clock in
      let v = f () in
      if !traced then begin
        let dt = float_of_int (now () - t0 - (Refclock.read_ns clock - r0)) in
        Hashtbl.replace samples name
          ((dt /. 1e6) :: Option.value ~default:[] (Hashtbl.find_opt samples name));
        add_total name (dt /. 1e9)
      end;
      v)

let quantile name q =
  match Hashtbl.find_opt samples name with
  | None | Some [] -> 0.
  | Some l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    a.(Int.min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Program counters read around traced rounds (they tick only while
   Obs.Metrics is enabled). *)
let counter_names =
  [ "ode.rhs_evals"; "ode.integrations"; "ode.steps"; "ode.rejected"; "ode.tier.stiff";
    "ode.warm_starts"; "ode.warm_fallbacks"; "simplex.solves"; "simplex.pivots";
    "simplex.dual_pivots"; "simplex.refactors"; "simplex.phase1_ns"; "simplex.phase2_ns";
    "simplex.dual_ns"; "simplex.warm_starts"; "simplex.warm_rejects"; "cache.warm_hits";
    "cache.warm_misses"; "pool.tasks"; "pool.idle_ns" ]

let read_counters () =
  let d = Obs.Metrics.delta () in
  let c n = float_of_int (Option.value ~default:0 (List.assoc_opt n d.Obs.Metrics.d_counters)) in
  let refactor_ns =
    match List.assoc_opt "simplex.refactor_ns" d.Obs.Metrics.d_histograms with
    | Some h -> h.Obs.Metrics.hd_sum
    | None -> 0.
  in
  let gc = Gc.quick_stat () in
  ("simplex.refactor_ns", refactor_ns)
  :: ("gc.minor_collections", float_of_int gc.Gc.minor_collections)
  :: ("gc.promoted_words", gc.Gc.promoted_words)
  :: ("gc.major_collections", float_of_int gc.Gc.major_collections)
  :: List.map (fun n -> (n, c n)) counter_names

(* {1 Checks} *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt
let expect cond fmt = Printf.ksprintf (fun s -> if not cond then failures := s :: !failures) fmt

(* One timed layer call that carries [ops] ops: an exception out of it
   fails those ops and the check, and the round goes on. *)
let guarded clock name ~ops ~failed f =
  match timed clock name f with
  | v -> Some v
  | exception e ->
    failed := !failed + ops;
    fail "%s raised %s" name (Printexc.to_string e);
    None

(* Fixed normalisation anchors of the hypervolumes (README.md). *)
let uptake_anchor = 15.486
let nitrogen_anchor = 208_330.

(* A solve warm-started at a design's own steady state stops after two
   windows that each moved the uptake by less than 2e-4 (|u| + 1). *)
let uptake_tol u = 4e-4 *. (Float.abs u +. 1.)

(* A warm solve of a design and a solve from the natural leaf's state
   may stop at different points of a slow drift: the stop rule bounds the
   change per window, not the distance to the steady state, and the two
   were seen 2.2% apart.  A trial within this share of the nominal uptake
   of the yield threshold may flip its verdict. *)
let verdict_margin = 0.03

(* The program's hypervolume of [pts], checked against the benchmark's
   own sweep. *)
let hypervolume clock label ~ref_point pts =
  match guarded clock "moo.hv" ~ops:0 ~failed:(ref 0) (fun () -> Moo.Hypervolume.compute ~ref_point pts) with
  | None -> 0.
  | Some program ->
    let mine = Check.hv2 ~ref_point pts in
    expect (Check.close ~rel:1e-9 ~abs:1e-12 mine program) "%s: hypervolume %.17g, independent sweep %.17g"
      label program mine;
    program

(* {1 Workloads} *)

(* What a round reports: its ops (counted from the benchmark's inputs),
   failed ops, hypervolume, a digest that must repeat across rounds, and
   the checks of its outputs. *)
type round = {
  ops : int;
  failed : int;
  hv : float;
  digest : float list;
  check : unit -> unit;  (** checks of the first round, run outside its timing *)
}

type workload = {
  setup_reps : int;
  setup : Refclock.t -> (string * (int * int)) list;
      (* one set-up; returns named sub-phases as mark pairs *)
  round : Refclock.t -> first:bool -> round;
}

let env () = Photo.Params.present ~tp_export:Photo.Params.low_export

let pmo2_config ~generations ~pop ?variation () =
  {
    Pmo2.Archipelago.default_config with
    migration_period = Int.max 1 (generations / 4);
    nsga2 = { Ea.Nsga2.default_config with pop_size = pop; variation; pool = Some (Parallel.Pool.get ()) };
    guard_penalty = Some 1e12;
    parallel = true;
    cache_size = Some 4096;
  }

(* Evaluations PMO2 requests: each island's initial population less the
   supplied seeds, then one offspring population per generation. *)
let pmo2_ops ~generations ~pop ~initial = islands * (pop - initial + (pop * generations))

let guard_failed r =
  Array.fold_left (fun acc s -> acc + Runtime.Guard.failures s) 0 r.Pmo2.Archipelago.guard_stats

let memo_hits = ref 0
let memo_lookups = ref 0

let note_memo r =
  if !traced then
    Array.iter
      (fun s ->
        memo_hits := !memo_hits + s.Cache.Memo.hits;
        memo_lookups := !memo_lookups + s.Cache.Memo.hits + s.Cache.Memo.misses)
      r.Pmo2.Archipelago.cache_stats

let digest_front r = List.concat_map (fun s -> Array.to_list s.Moo.Solution.f) r.Pmo2.Archipelago.front

let pmo2_seeds ~seed ~salt k =
  let rng = Random.State.make [| seed; salt |] in
  List.init k (fun _ -> Random.State.bits rng)

(* Share of re-evaluated photo front designs that converged. *)
let photo_converged = ref 0.

let photo ~seed =
  let st = ref None in
  let setup clock =
    let m0 = Refclock.mark clock in
    let env = env () in
    let problem = Photo.Leaf.problem env in
    let natural = Moo.Solution.evaluate problem (Array.make Photo.Enzyme.count 1.) in
    let cfg = pmo2_config ~generations:photo_generations ~pop:photo_pop () in
    let m1 = Refclock.mark clock in
    st := Some (env, problem, natural, cfg);
    [ ("setup", (m0, m1)) ]
  in
  (* Re-evaluate without cache or warm start, from the natural leaf's
     state as Photo.Leaf.problem does. *)
  let check_front env y0 front =
    List.iter (fun m -> fail "photo: %s" m) (Check.non_dominated (List.map (fun s -> s.Moo.Solution.f) front));
    List.fold_left
      (fun ok s ->
        let x = s.Moo.Solution.x in
        expect
          (Array.for_all (fun v -> v >= Photo.Leaf.ratio_min && v <= Photo.Leaf.ratio_max) x)
          "photo: front design outside [%g, %g]" Photo.Leaf.ratio_min Photo.Leaf.ratio_max;
        let rep = Photo.Steady_state.evaluate ~y0 ~env ~ratios:x () in
        let u = if rep.Photo.Steady_state.converged then rep.Photo.Steady_state.uptake else 0. in
        expect
          (Check.close u (Photo.Leaf.uptake_of s)
          && Check.close rep.Photo.Steady_state.nitrogen (Photo.Leaf.nitrogen_of s))
          "photo: front point (%g, %g), cold re-evaluation (%g, %g)" (Photo.Leaf.uptake_of s)
          (Photo.Leaf.nitrogen_of s) u rep.Photo.Steady_state.nitrogen;
        if rep.Photo.Steady_state.converged then ok + 1 else ok)
      0 front
  in
  let round clock ~first =
    let env, problem, natural, cfg = Option.get !st in
    let eval x = timed clock "photo.eval" (fun () -> problem.Moo.Problem.eval x) in
    let ops = pmo2_ops ~generations:photo_generations ~pop:photo_pop ~initial:1 in
    let failed = ref 0 in
    let runs =
      List.map
        (fun seed ->
          let r =
            guarded clock "pmo2.run" ~ops ~failed (fun () ->
                Pmo2.Archipelago.run ~seed ~initial:[ natural ] ~generations:photo_generations
                  { problem with Moo.Problem.eval } cfg)
          in
          Option.iter note_memo r;
          let front = match r with Some r -> r.Pmo2.Archipelago.front | None -> [] in
          let pts =
            List.map
              (fun s -> [| -.Photo.Leaf.uptake_of s /. uptake_anchor; Photo.Leaf.nitrogen_of s /. nitrogen_anchor |])
              front
          in
          (r, front, hypervolume clock "photo" ~ref_point:[| 0.; 3. |] pts))
        (pmo2_seeds ~seed ~salt:1 photo_runs)
    in
    let check () =
      let u, n = Photo.Leaf.natural_point env in
      expect (Float.abs (u -. uptake_anchor) < 5e-4 && Float.abs (n -. nitrogen_anchor) < 0.5)
        "photo: natural leaf at (%.4f, %.1f), anchor (%.3f, %.0f)" u n uptake_anchor nitrogen_anchor;
      let y0 = (Photo.Steady_state.natural ~env ()).Photo.Steady_state.y in
      let fronts = List.map (fun (_, f, _) -> f) runs in
      let ok = List.fold_left (fun acc f -> acc + check_front env y0 f) 0 fronts in
      photo_converged := float_of_int ok /. float_of_int (Int.max 1 (List.length (List.concat fronts)))
    in
    {
      ops = photo_runs * ops;
      failed = List.fold_left (fun acc (r, _, _) -> acc + Option.fold ~none:0 ~some:guard_failed r) !failed runs;
      hv = List.fold_left (fun acc (_, _, hv) -> acc +. hv) 0. runs /. float_of_int photo_runs;
      digest = List.concat_map (fun (r, _, _) -> Option.fold ~none:[] ~some:digest_front r) runs;
      check = (if first then check else ignore);
    }
  in
  { setup_reps = 9; setup; round }

(* max EP over |S v| <= eps componentwise, the bounds and BP >= b: an upper
   bound on the EP of any point with residual ||S v||_2 <= eps. *)
let relaxed_network (g : Fba.Geobacter.model) ~eps =
  let net = g.Fba.Geobacter.net in
  let names = Fba.Network.metabolite_names net in
  let r = Fba.Network.create ~metabolites:names () in
  for j = 0 to Fba.Network.n_reactions net - 1 do
    let x = Fba.Network.reaction net j in
    ignore
      (Fba.Network.add_reaction r ~name:x.Fba.Network.name ~stoich:x.Fba.Network.stoich
         ~lb:x.Fba.Network.lb ~ub:x.Fba.Network.ub)
  done;
  Array.iteri
    (fun i name ->
      ignore (Fba.Network.add_reaction r ~name:("slack_" ^ name) ~stoich:[ (i, 1.) ] ~lb:(-.eps) ~ub:eps))
    names;
  r

let geo_points sols =
  List.map
    (fun s ->
      [| -.(Fba.Moo_problem.ep_of s -. 150.) /. 10.; -.(Fba.Moo_problem.bp_of s -. 0.25) /. 0.05 |])
    sols

let geobacter ~seed =
  let st = ref None in
  let setup clock =
    let m0 = Refclock.mark clock in
    let g = Fba.Geobacter.build () in
    let problem = Fba.Moo_problem.problem g in
    let m1 = Refclock.mark clock in
    let vary = Fba.Moo_problem.flux_variation g () in
    let m2 = Refclock.mark clock in
    let seeds = Fba.Moo_problem.seeds g ~levels:[ 0.283; 0.292; 0.301 ] in
    let m3 = Refclock.mark clock in
    st := Some (g, problem, vary, seeds);
    [ ("setup", (m0, m3)); ("fba.model_build_s", (m0, m1)); ("fba.projector_build_s", (m1, m2));
      ("fba.seed_lp_s", (m2, m3)) ]
  in
  let round clock ~first =
    let g, problem, vary, seeds = Option.get !st in
    let eval x = timed clock "fba.eval" (fun () -> problem.Moo.Problem.eval x) in
    let variation rng p1 p2 = timed clock "fba.variation" (fun () -> vary rng p1 p2) in
    let cfg = pmo2_config ~generations:geo_generations ~pop:geo_pop ~variation () in
    let ops = pmo2_ops ~generations:geo_generations ~pop:geo_pop ~initial:(List.length seeds) in
    let failed = ref 0 in
    let r =
      guarded clock "pmo2.run" ~ops ~failed (fun () ->
          Pmo2.Archipelago.run ~seed ~initial:seeds ~generations:geo_generations
            { problem with Moo.Problem.eval } cfg)
    in
    Option.iter note_memo r;
    let front = match r with Some r -> r.Pmo2.Archipelago.front | None -> [] in
    let feasible = List.filter Moo.Solution.feasible front in
    let ref_point = [| 0.; 0. |] in
    let pts = geo_points feasible in
    let hv = hypervolume clock "geobacter" ~ref_point pts in
    let check () =
      let net = g.Fba.Geobacter.net in
      let bounds = Fba.Network.bounds net in
      expect (feasible <> [] && List.length feasible = List.length front)
        "geobacter: %d of %d front points feasible" (List.length feasible) (List.length front);
      List.iter
        (fun s ->
          let ep = Fba.Moo_problem.ep_of s and bp = Fba.Moo_problem.bp_of s in
          (* The synthetic model is calibrated to the window only
             approximately: allow 0.5 on EP (0.3%). *)
          expect (ep >= 158. -. 0.5 && ep <= 161. +. 0.5 && bp >= 0.283 -. 1e-9 && bp <= 0.301 +. 1e-9)
            "geobacter: seed (EP %g, BP %g) outside the Figure 4 window" ep bp)
        seeds;
      let relaxed = relaxed_network g ~eps:0.005 in
      let bp_lb, bp_ub = (Fba.Network.bounds relaxed).(g.Fba.Geobacter.bp) in
      let basis = ref None in
      List.iter
        (fun s ->
          let v = s.Moo.Solution.x in
          expect
            (Array.for_all2 (fun x (lo, hi) -> x >= lo -. 1e-9 && x <= hi +. 1e-9) v bounds)
            "geobacter: front point outside the flux bounds";
          let res = Check.residual net v in
          expect (res <= 0.005) "geobacter: front point residual ||S v|| = %g > 0.005" res;
          let bp = v.(g.Fba.Geobacter.bp) and ep = v.(g.Fba.Geobacter.ep) in
          Fba.Network.set_bounds relaxed g.Fba.Geobacter.bp (Float.max bp_lb bp) bp_ub;
          let sol, b = Fba.Analysis.fba_with_basis ?basis:!basis ~t:relaxed ~objective:g.Fba.Geobacter.ep () in
          basis := b;
          expect (ep <= sol.Fba.Analysis.objective +. 1e-6)
            "geobacter: EP %g above the LP maximum %g at biomass %g" ep sol.Fba.Analysis.objective bp)
        feasible
    in
    {
      ops;
      failed = !failed + Option.fold ~none:0 ~some:guard_failed r;
      hv;
      digest = Option.fold ~none:[] ~some:digest_front r;
      check = (if first then check else ignore);
    }
  in
  { setup_reps = 3; setup; round }

(* Distinct reactions drawn from the workload seed, none of [excluded]. *)
let sample_reactions rng ~n ~k ~excluded =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let j = Random.State.int rng n in
      if List.mem j acc || List.mem j excluded then go acc else go (j :: acc)
  in
  go []

let lp_sweep ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let st = ref None in
  let setup clock =
    let m0 = Refclock.mark clock in
    let g = Fba.Geobacter.build () in
    let m1 = Refclock.mark clock in
    let net = g.Fba.Geobacter.net in
    let wild = Fba.Analysis.fba ~t:net ~objective:g.Fba.Geobacter.ep in
    let base =
      Fba.Knockout.baseline ~t:net ~target:g.Fba.Geobacter.ep ~biomass:g.Fba.Geobacter.bp
        ~min_biomass:lp_floor
    in
    let m2 = Refclock.mark clock in
    st := Some (g, wild, base);
    [ ("setup", (m0, m2)); ("fba.model_build_s", (m0, m1)) ]
  in
  let n = Fba.Geobacter.target_reactions in
  let inputs =
    lazy
      (let g, _, _ = Option.get !st in
       let excluded = Fba.Geobacter.[ g.ep; g.bp; g.atpm ] in
       let single = sample_reactions rng ~n ~k:lp_single ~excluded in
       let pair = sample_reactions rng ~n ~k:lp_pair ~excluded in
       let levels = List.init lp_levels (fun i -> 0.25 +. (0.05 *. float_of_int i /. float_of_int (lp_levels - 1))) in
       (single, pair, levels))
  in
  let round clock ~first =
    let g, wild, base = Option.get !st in
    let single, pair, levels = Lazy.force inputs in
    let net = g.Fba.Geobacter.net in
    let ep = g.Fba.Geobacter.ep and bp = g.Fba.Geobacter.bp in
    let all = List.init n Fun.id in
    let failed = ref 0 in
    let call name ~ops f = Option.value ~default:[] (guarded clock name ~ops ~failed f) in
    let fva = call "fba.fva" ~ops:(2 * n) (fun () -> Fba.Analysis.fva ~t:net ~reactions:all) in
    let ko f cands ~ops =
      call "fba.knockout" ~ops (fun () ->
          f ~t:net ~target:ep ~biomass:bp ~min_biomass:lp_floor ~candidates:cands)
    in
    let singles = ko Fba.Knockout.single single ~ops:lp_single in
    let pairs = ko Fba.Knockout.pairs pair ~ops:(lp_pair * (lp_pair - 1) / 2) in
    let front =
      call "fba.epsilon" ~ops:lp_levels (fun () ->
          Fba.Analysis.epsilon_constraint ~t:net ~primary:ep ~secondary:bp ~levels)
    in
    let ref_point = [| 0.; 0. |] in
    let pts = List.map (fun (e, b) -> [| -.(e -. 150.) /. 10.; -.(b -. 0.25) /. 0.05 |]) front in
    let hv = hypervolume clock "lp_sweep" ~ref_point pts in
    let kos = singles @ pairs in
    let check () =
      let bounds = Fba.Network.bounds net in
      List.iter (fun m -> fail "lp_sweep: %s" m)
        (Check.fva ~bounds ~wild:wild.Fba.Analysis.fluxes
           ~pinned:[ (g.Fba.Geobacter.atpm, Fba.Geobacter.atp_maintenance) ]
           fva);
      List.iter (fun m -> fail "lp_sweep: %s" m)
        (Check.knockouts ~wild_target:base.Fba.Knockout.target_flux ~floor:lp_floor
           (List.map (fun k -> Fba.Knockout.(k.removed, k.target_flux, k.biomass_flux)) kos));
      expect (List.length front = lp_levels) "lp_sweep: %d of %d epsilon levels feasible"
        (List.length front) lp_levels;
      (* Warm results equal cold solves of the same LPs. *)
      let pick l k =
        let a = Array.of_list l in
        List.init (Int.min k (Array.length a)) (fun _ -> a.(Random.State.int rng (Array.length a)))
      in
      List.iter
        (fun (j, (mn, mx)) ->
          let cold sign = (Fba.Analysis.fba_multi ~t:net ~objective:[ (j, sign) ]).Fba.Analysis.objective in
          let cmx = cold 1. and cmn = -.cold (-1.) in
          expect (Check.close ~rel:1e-7 ~abs:1e-7 mx cmx && Check.close ~rel:1e-7 ~abs:1e-7 mn cmn)
            "lp_sweep: FVA of %d warm [%.9g, %.9g], cold [%.9g, %.9g]" j mn mx cmn cmx)
        (pick fva 4);
      let saved = Fba.Network.bounds net in
      List.iter
        (fun k ->
          let removed = k.Fba.Knockout.removed in
          List.iter (fun j -> Fba.Network.set_bounds net j 0. 0.) removed;
          Fba.Network.set_bounds net bp (Float.max (fst saved.(bp)) lp_floor) (snd saved.(bp));
          let cold = (Fba.Analysis.fba ~t:net ~objective:ep).Fba.Analysis.objective in
          Array.iteri (fun j (lo, hi) -> Fba.Network.set_bounds net j lo hi) saved;
          expect (Check.close ~rel:1e-7 ~abs:1e-7 cold k.Fba.Knockout.target_flux)
            "lp_sweep: knockout {%s} warm %.9g, cold %.9g"
            (String.concat "," (List.map string_of_int removed)) k.Fba.Knockout.target_flux cold)
        (pick singles 4 @ pick pairs 2)
    in
    {
      ops = (2 * n) + lp_single + (lp_pair * (lp_pair - 1) / 2) + lp_levels;
      failed = !failed;
      hv;
      digest = List.map (fun k -> k.Fba.Knockout.target_flux) kos @ List.map fst front;
      check = (if first then check else ignore);
    }
  in
  { setup_reps = 5; setup; round }

let robust ~seed =
  let rng = Random.State.make [| seed; 4 |] in
  let st = ref None in
  let setup clock =
    let m0 = Refclock.mark clock in
    let rng = Random.State.make [| 2011 |] in
    let env = env () in
    let natural = Photo.Steady_state.natural ~env () in
    let y0 = natural.Photo.Steady_state.y in
    (* Fixed designs within 15% of the natural leaf whose steady state
       converges; the workload seed drives the trial ensembles. *)
    let rec draw () =
      let x = Array.init Photo.Enzyme.count (fun _ -> 0.85 +. Random.State.float rng 0.3) in
      let rep = Photo.Steady_state.evaluate ~y0 ~env ~ratios:x () in
      if rep.Photo.Steady_state.converged then (x, rep) else draw ()
    in
    let designs =
      (Array.make Photo.Enzyme.count 1., natural) :: List.init (robust_designs - 1) (fun _ -> draw ())
    in
    let pool = Parallel.Pool.get () in
    let m1 = Refclock.mark clock in
    st := Some (env, y0, designs, pool);
    [ ("setup", (m0, m1)) ]
  in
  let seeds = lazy (List.init robust_designs (fun _ -> Random.State.bits rng)) in
  let round clock ~first =
    let env, y0, designs, pool = Option.get !st in
    let seeds = Lazy.force seeds in
    let failed = ref 0 and ops = ref 0 in
    let results =
      List.map2
        (fun (x, rep) dseed ->
          if not rep.Photo.Steady_state.converged then fail "robust: design steady state did not converge";
          let warm = (rep.Photo.Steady_state.y, rep.Photo.Steady_state.h_last) in
          let seen = Hashtbl.create 256 in
          let f ratios =
            timed clock "robustness.trial" (fun () ->
                let u = (Photo.Steady_state.evaluate ~warm ~env ~ratios ()).Photo.Steady_state.uptake in
                if first then Hashtbl.replace seen ratios u;
                u)
          in
          let layer_call name trials g =
            ops := !ops + trials;
            guarded clock name ~ops:trials ~failed g
          in
          let global =
            layer_call "robustness.global" robust_global (fun () ->
                Robustness.Yield.gamma_pool ~pool ~seed:dseed ~f ~trials:robust_global x)
          in
          ignore
            (layer_call "robustness.local" (robust_local * Photo.Enzyme.count) (fun () ->
                 Robustness.Screen.local_analysis_pool ~pool ~seed:(dseed + 1) ~f ~trials:robust_local x));
          match global with
          | None -> ([| 0.; 0. |], ignore)
          | Some y ->
            let open Robustness.Yield in
            expect (y.survivors >= 0 && y.survivors <= y.trials && y.yield_pct >= 0. && y.yield_pct <= 100.)
              "robust: %d survivors of %d trials, yield %g" y.survivors y.trials y.yield_pct;
            let check () =
              if Array.for_all (fun v -> v = 1.) x then
                expect (Float.abs (y.nominal -. uptake_anchor) <= uptake_tol y.nominal)
                  "robust: natural nominal uptake %.4f, anchor %.3f" y.nominal uptake_anchor;
              let eps = 0.05 *. Float.abs y.nominal in
              let trial t = Robustness.Perturb.stream_trial ~seed:dseed ~delta:0.1 x t in
              let warm_value t = Hashtbl.find_opt seen (trial t) in
              let mine =
                List.init robust_global (fun t ->
                    match warm_value t with
                    | Some u -> Float.abs (y.nominal -. u) <= eps
                    | None -> fail "robust: trial %d never evaluated" t; false)
                |> List.filter Fun.id |> List.length
              in
              expect (mine = y.survivors) "robust: %d survivors, independent count %d" y.survivors mine;
              for _ = 1 to 6 do
                let t = Random.State.int rng robust_global in
                let cold = (Photo.Steady_state.evaluate ~y0 ~env ~ratios:(trial t) ()).Photo.Steady_state.uptake in
                match warm_value t with
                | Some u ->
                  expect
                    (Check.same_verdict ~nominal:y.nominal ~eps ~margin:(verdict_margin *. Float.abs y.nominal) u cold)
                    "robust: trial %d warm %.6f, cold %.6f disagree on the verdict" t u cold
                | None -> ()
              done
            in
            ([| -.y.nominal /. uptake_anchor; -.y.yield_pct /. 100. |], check))
        designs seeds
    in
    let pts = List.map fst results in
    let ref_point = [| 0.; 0. |] in
    let hv = hypervolume clock "robust" ~ref_point pts in
    {
      ops = !ops;
      failed = !failed;
      hv;
      digest = List.concat_map Array.to_list pts;
      check = (if first then fun () -> List.iter (fun (_, c) -> c ()) results else ignore);
    }
  in
  { setup_reps = 7; setup; round }

(* {1 Driver} *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "VmHWM not found in /proc/self/status"
      in
      go ())

type round_record = {
  rr_marks : int * int;
  rr_words : float;
  rr_traced : bool;
  rr_round : round;
  rr_counters : (string * float) list;  (* deltas, traced rounds only *)
}

let json_metric (name, unit, v) =
  (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit) ])

let run ~name ~seed ~seconds ~trace =
  Check.self_test ();
  Parallel.Pool.set_default_domains 1;
  let w =
    match name with
    | "photo" -> photo ~seed
    | "geobacter" -> geobacter ~seed
    | "lp_sweep" -> lp_sweep ~seed
    | "robust" -> robust ~seed
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  let clock = Refclock.create () in
  let setups = List.init w.setup_reps (fun _ -> w.setup clock) in
  (* Rounds: at least two, so that the check that a repeated round
     reproduces the first always runs; a traced run alternates untraced
     and traced ones, so the tracing overhead is measured in the same
     process. *)
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let rounds = ref [] in
  let k = ref 0 in
  while now () < deadline || !k < 2 do
    let is_traced = trace && !k mod 2 = 1 in
    traced := is_traced;
    Obs.Span.set_enabled is_traced;
    Obs.Metrics.set_enabled is_traced;
    let c0 = if is_traced then read_counters () else [] in
    let i = Refclock.mark clock in
    let w0 = Gc.minor_words () in
    let r = Obs.Span.with_span "round" (fun () -> w.round clock ~first:(!k = 0)) in
    let w1 = Gc.minor_words () in
    let j = Refclock.mark clock in
    let c1 = if is_traced then read_counters () else [] in
    Obs.Metrics.set_enabled false;
    Obs.Span.set_enabled false;
    traced := false;
    (try r.check () with e -> fail "%s: a check raised %s" name (Printexc.to_string e));
    rounds :=
      { rr_marks = (i, j); rr_words = w1 -. w0; rr_traced = is_traced; rr_round = r;
        rr_counters = List.map2 (fun (n, a) (_, b) -> (n, b -. a)) c0 c1 }
      :: !rounds;
    incr k
  done;
  ignore (Refclock.mark clock);
  Refclock.stop ();
  let rounds = List.rev !rounds in
  let first = (List.hd rounds).rr_round in
  List.iter
    (fun rr -> expect (rr.rr_round.digest = first.digest) "%s: a repeated round gave a different result" name)
    rounds;
  let span rr = Refclock.span clock (fst rr.rr_marks) (snd rr.rr_marks) in
  let setup_span sub = List.map (fun s -> Refclock.span clock (fst (List.assoc sub s)) (snd (List.assoc sub s))) setups in
  let setup_norm = median (List.map (fun s -> s.Refclock.norm_s) (setup_span "setup")) in
  let setup_raw = median (List.map (fun s -> s.Refclock.raw_s) (setup_span "setup")) in
  let plain = List.filter (fun rr -> not rr.rr_traced) rounds in
  let run_norm = median (List.map (fun rr -> (span rr).Refclock.norm_s) plain) in
  let run_raw = median (List.map (fun rr -> (span rr).Refclock.raw_s) plain) in
  let ops_per_round = first.ops in
  let attempted = List.fold_left (fun acc rr -> acc + rr.rr_round.ops) 0 rounds in
  let failed = List.fold_left (fun acc rr -> acc + rr.rr_round.failed) 0 rounds in
  let words =
    median (List.map (fun rr -> (rr.rr_words -. (span rr).Refclock.ref_words) /. float_of_int rr.rr_round.ops) plain)
  in
  let ref_ms, ref_p10, ref_p90, readings = Refclock.summary clock in
  Printf.printf
    "%s seed %d: %d rounds of %d ops, %d attempted, %d failed; run_s %.4f (raw %.4f), setup_s %.5f (raw %.5f) over %d set-ups\n"
    name seed (List.length rounds) ops_per_round attempted failed run_norm run_raw setup_norm setup_raw w.setup_reps;
  Printf.printf "timing: reference readings median %.4f ms (p10 %.4f, p90 %.4f, nominal %.4f), %d readings\n"
    ref_ms ref_p10 ref_p90 (Refclock.nominal_ns /. 1e6) readings;
  List.iteri
    (fun k rr ->
      let sp = span rr in
      Printf.printf "  round %d%s: %.4f s, raw %.4f s, %d readings\n" k
        (if rr.rr_traced then " (traced)" else "") sp.Refclock.norm_s sp.Refclock.raw_s sp.Refclock.readings)
    rounds;
  List.iter (fun m -> Printf.eprintf "%s: check failed: %s\n" name m) (List.rev !failures);
  let metrics =
    if not trace then
      [ ("run_s", "s", run_norm); ("setup_s", "s", setup_norm); ("alloc_words_per_op", "words", words);
        ("peak_rss_mb", "MB", peak_rss_mb ()); ("hv", "1", first.hv) ]
    else begin
      let tr = List.filter (fun rr -> rr.rr_traced) rounds in
      let n_tr = float_of_int (List.length tr) in
      let ops = float_of_int (List.fold_left (fun acc rr -> acc + rr.rr_round.ops) 0 tr) in
      let c name = List.fold_left (fun acc rr -> acc +. List.assoc name rr.rr_counters) 0. tr in
      let per_op name = c name /. ops in
      let ratio a b = if b > 0. then a /. b else 0. in
      let solves = c "simplex.solves" in
      let per_solve name scale = ratio (c name *. scale) solves in
      let raw_tr = List.fold_left (fun acc rr -> acc +. (span rr).Refclock.raw_s) 0. tr in
      let pmo2_self =
        total "pmo2.run" -. total "photo.eval" -. total "fba.eval" -. total "fba.variation"
      in
      let gens =
        match name with
        | "photo" -> photo_runs * photo_generations
        | "geobacter" -> geo_generations
        | _ -> 0
      in
      let traced_norm = median (List.map (fun rr -> (span rr).Refclock.norm_s) tr) in
      let sub name = median (List.map (fun s -> s.Refclock.norm_s) (setup_span name)) in
      let has_sub name = List.mem_assoc name (List.hd setups) in
      [
        ("photo.eval_ms.p50", "ms", quantile "photo.eval" 0.5);
        ("photo.eval_ms.p99", "ms", quantile "photo.eval" 0.99);
        ("photo.eval_share", "1", ratio (total "photo.eval") raw_tr);
        ("photo.converged_ratio", "1", !photo_converged);
        ("ode.rhs_evals_per_op", "count", per_op "ode.rhs_evals");
        ("ode.integrations_per_op", "count", per_op "ode.integrations");
        ("ode.steps_per_op", "count", per_op "ode.steps");
        ("ode.rejected_per_op", "count", per_op "ode.rejected");
        ("ode.stiff_per_op", "count", per_op "ode.tier.stiff");
        ("ode.warm_starts_per_op", "count", per_op "ode.warm_starts");
        ("ode.warm_fallbacks_per_op", "count", per_op "ode.warm_fallbacks");
        ("fba.variation_ms.p50", "ms", quantile "fba.variation" 0.5);
        ("fba.variation_ms.p99", "ms", quantile "fba.variation" 0.99);
        ("fba.variation_share", "1", ratio (total "fba.variation") raw_tr);
        ("fba.eval_ms.p50", "ms", quantile "fba.eval" 0.5);
        ("fba.model_build_s", "s", if has_sub "fba.model_build_s" then sub "fba.model_build_s" else 0.);
        ("fba.projector_build_s", "s", if has_sub "fba.projector_build_s" then sub "fba.projector_build_s" else 0.);
        ("fba.seed_lp_s", "s", if has_sub "fba.seed_lp_s" then sub "fba.seed_lp_s" else 0.);
        ("fba.fva_s", "s", total "fba.fva" /. n_tr);
        ("fba.knockout_s", "s", total "fba.knockout" /. n_tr);
        ("lp.solves_per_op", "count", per_op "simplex.solves");
        ("lp.ms_per_op", "ms", 1e3 *. (total "fba.fva" +. total "fba.knockout" +. total "fba.epsilon") /. ops);
        ("lp.pivots_per_solve", "count", per_solve "simplex.pivots" 1.);
        ("lp.dual_pivots_per_solve", "count", per_solve "simplex.dual_pivots" 1.);
        ("lp.refactors_per_solve", "count", per_solve "simplex.refactors" 1.);
        ("lp.refactor_ms_per_solve", "ms", per_solve "simplex.refactor_ns" 1e-6);
        ("lp.phase1_ms_per_solve", "ms", per_solve "simplex.phase1_ns" 1e-6);
        ("lp.phase2_ms_per_solve", "ms", per_solve "simplex.phase2_ns" 1e-6);
        ("lp.dual_ms_per_solve", "ms", per_solve "simplex.dual_ns" 1e-6);
        ("lp.warm_start_ratio", "1", per_solve "simplex.warm_starts" 1.);
        ("lp.warm_rejects_per_solve", "count", per_solve "simplex.warm_rejects" 1.);
        ("cache.memo_hit_ratio", "1", ratio (float_of_int !memo_hits) (float_of_int !memo_lookups));
        ("cache.warm_hit_ratio", "1",
          ratio (c "cache.warm_hits") (c "cache.warm_hits" +. c "cache.warm_misses"));
        ("pmo2.self_ms_per_gen", "ms", if gens > 0 then 1e3 *. pmo2_self /. (n_tr *. float_of_int gens) else 0.);
        ("moo.hv_ms", "ms", quantile "moo.hv" 0.5);
        ("robustness.trial_ms.p50", "ms", quantile "robustness.trial" 0.5);
        ("robustness.trial_ms.p99", "ms", quantile "robustness.trial" 0.99);
        ("robustness.global_s", "s", total "robustness.global" /. n_tr);
        ("robustness.local_s", "s", total "robustness.local" /. n_tr);
        ("parallel.tasks_per_op", "count", per_op "pool.tasks");
        ("parallel.idle_ms", "ms", c "pool.idle_ns" /. 1e6 /. n_tr);
        ("gc.minor_collections_per_op", "count", per_op "gc.minor_collections");
        ("gc.promoted_words_per_op", "words", per_op "gc.promoted_words");
        ("gc.major_collections", "count", c "gc.major_collections" /. n_tr);
        ("runtime.guard_penalized", "count",
          float_of_int (List.fold_left (fun acc rr -> acc + rr.rr_round.failed) 0 tr));
        ("trace.overhead_share", "1", ratio (traced_norm -. run_norm) run_norm);
      ]
    end
  in
  if trace then begin
    let dir = Filename.concat "perfbench" "out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" name seed) in
    Obs.Span.write_chrome ~path;
    Printf.printf "trace: %d spans written to %s\n" (List.length (Obs.Span.events ())) path;
    List.iter (fun (n, u, v) -> Printf.printf "  %-30s %14.6g %s\n" n v u) metrics
  end;
  let correct = !failures = [] in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int failed);
            ("metrics", Obs.Json.Obj (List.map json_metric metrics));
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME photo | geobacter | lp_sweep | robust");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long to repeat rounds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 print per-layer metrics and write a trace (default 0)");
    ]
  in
  let usage = "bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload [ "photo"; "geobacter"; "lp_sweep"; "robust" ]) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if not (!seconds > 0. && (!trace = 0 || !trace = 1)) then begin
    prerr_endline ("perfbench: bad --seconds or --trace\n" ^ usage);
    exit 2
  end;
  run ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
