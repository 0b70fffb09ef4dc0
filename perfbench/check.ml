(* Checkers computed apart from the program under test.  Each takes plain
   data, returns the list of violations it found ([] = pass), and has a
   self-test on a hand-made input whose answer is known, run before any
   workload so a broken checker cannot pass a broken program. *)

(* Exact hypervolume of a set of minimised 2-D points against [ref]:
   sweep the points by ascending first objective and add the slab each
   one carves below the best second objective seen so far.  Points that
   do not strictly dominate [ref] contribute nothing. *)
let hv2 ~ref_point pts =
  let r0 = ref_point.(0) and r1 = ref_point.(1) in
  let inside = List.filter (fun p -> p.(0) < r0 && p.(1) < r1) pts in
  let sorted =
    List.sort
      (fun a b -> match Float.compare a.(0) b.(0) with 0 -> Float.compare a.(1) b.(1) | c -> c)
      inside
  in
  let area, _ =
    List.fold_left
      (fun (area, best) p ->
        if p.(1) < best then (area +. ((r0 -. p.(0)) *. (best -. p.(1))), p.(1))
        else (area, best))
      (0., r1) sorted
  in
  area

(* ‖S·v‖₂ assembled from the reaction records alone, without the
   program's stoichiometric matrix or its violation function. *)
let residual net v =
  let r = Array.make (Fba.Network.n_metabolites net) 0. in
  for j = 0 to Fba.Network.n_reactions net - 1 do
    List.iter
      (fun (i, c) -> r.(i) <- r.(i) +. (c *. v.(j)))
      (Fba.Network.reaction net j).Fba.Network.stoich
  done;
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. r)

let close ?(rel = 1e-9) ?(abs = 1e-9) a b =
  Float.abs (a -. b) <= abs +. (rel *. Float.max (Float.abs a) (Float.abs b))

(* [p] weakly better everywhere and strictly better somewhere. *)
let dominates p q =
  let n = Array.length p in
  let rec go i strict =
    if i = n then strict
    else if p.(i) > q.(i) then false
    else go (i + 1) (strict || p.(i) < q.(i))
  in
  go 0 false

let non_dominated pts =
  List.concat_map
    (fun p ->
      if List.exists (fun q -> dominates q p) pts then
        [ Printf.sprintf "point (%g, %g) is dominated" p.(0) p.(1) ]
      else [])
    pts

(* Flux variability: every range [min, max] sits inside the bounds, in
   order; a known feasible flux vector [wild] lies inside every range;
   [pinned] reactions have the given fixed range. *)
let fva ?(tol = 1e-6) ~bounds ~wild ~pinned ranges =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  List.iter
    (fun (j, (mn, mx)) ->
      let lo, up = bounds.(j) in
      if not (lo -. tol <= mn && mn <= mx +. tol && mx <= up +. tol) then
        fail "reaction %d: range [%g, %g] not inside bounds [%g, %g]" j mn mx lo up;
      if not (mn -. tol <= wild.(j) && wild.(j) <= mx +. tol) then
        fail "reaction %d: feasible flux %g outside range [%g, %g]" j wild.(j) mn mx)
    ranges;
  List.iter
    (fun (j, v) ->
      match List.assoc_opt j ranges with
      | Some (mn, mx) when close ~abs:tol mn v && close ~abs:tol mx v -> ()
      | Some (mn, mx) -> fail "reaction %d: range [%g, %g], expected pinned at %g" j mn mx v
      | None -> fail "reaction %d: no range reported" j)
    pinned;
  List.rev !fails

(* Knockouts only shrink the feasible set, so no knockout beats the
   wild-type optimum; every reported knockout meets the biomass floor. *)
let knockouts ?(tol = 1e-6) ~wild_target ~floor kos =
  List.concat_map
    (fun (removed, target, biomass) ->
      let name = String.concat "," (List.map string_of_int removed) in
      (if target > wild_target +. tol then
         [ Printf.sprintf "knockout {%s}: target %g above wild type %g" name target wild_target ]
       else [])
      @
      if biomass < floor -. tol then
        [ Printf.sprintf "knockout {%s}: biomass %g below floor %g" name biomass floor ]
      else [])
    kos

(* Two evaluations of one robustness trial reach the same survive/fail
   verdict, unless one of them lies within [margin] of the threshold,
   where solver tolerance alone may flip it. *)
let same_verdict ~nominal ~eps ~margin a b =
  let survives v = Float.abs (nominal -. v) <= eps in
  let near v = Float.abs (Float.abs (nominal -. v) -. eps) <= margin in
  survives a = survives b || near a || near b

let self_test () =
  let expect name cond = if not cond then failwith ("perfbench checker self-test: " ^ name) in
  (* Staircase of three points: slabs 3·1 + 2·1 + 1·1. *)
  let stair = [ [| 1.; 3. |]; [| 2.; 2. |]; [| 3.; 1. |] ] in
  expect "hv2 staircase" (hv2 ~ref_point:[| 4.; 4. |] stair = 6.);
  expect "hv2 dominated point" (hv2 ~ref_point:[| 4.; 4. |] ([| 3.; 3. |] :: stair) = 6.);
  expect "hv2 outside ref" (hv2 ~ref_point:[| 4.; 4. |] [ [| 5.; 0. |] ] = 0.);
  expect "non_dominated" (non_dominated stair = [] && List.length (non_dominated ([| 3.; 3. |] :: stair)) = 1);
  (* Chain uptake -> A -> B -> out. *)
  let net = Fba.Network.create ~metabolites:[| "A"; "B" |] () in
  ignore (Fba.Network.add_reaction net ~name:"in" ~stoich:[ (0, 1.) ] ~lb:0. ~ub:10.);
  ignore (Fba.Network.add_reaction net ~name:"ab" ~stoich:[ (0, -1.); (1, 1.) ] ~lb:0. ~ub:10.);
  ignore (Fba.Network.add_reaction net ~name:"out" ~stoich:[ (1, -1.) ] ~lb:0. ~ub:10.);
  expect "residual steady" (residual net [| 1.; 1.; 1. |] = 0.);
  expect "residual unit" (residual net [| 1.; 0.; 0. |] = 1.);
  expect "residual sqrt2" (close (residual net [| 2.; 1.; 0. |]) (sqrt 2.));
  let bounds = [| (0., 10.); (0.45, 0.45) |] in
  let ok = [ (0, (2., 5.)); (1, (0.45, 0.45)) ] in
  let pinned = [ (1, 0.45) ] in
  expect "fva ok" (fva ~bounds ~wild:[| 3.; 0.45 |] ~pinned ok = []);
  expect "fva inverted" (fva ~bounds ~wild:[| 3.; 0.45 |] ~pinned [ (0, (6., 5.)); (1, (0.45, 0.45)) ] <> []);
  expect "fva outside" (fva ~bounds ~wild:[| 7.; 0.45 |] ~pinned ok <> []);
  expect "fva pin" (fva ~bounds ~wild:[| 3.; 0.45 |] ~pinned [ (0, (2., 5.)); (1, (0.4, 0.45)) ] <> []);
  expect "knockouts ok" (knockouts ~wild_target:10. ~floor:0.3 [ ([ 1 ], 9., 0.3) ] = []);
  expect "knockouts above" (knockouts ~wild_target:10. ~floor:0.3 [ ([ 1 ], 11., 0.3) ] <> []);
  expect "knockouts floor" (knockouts ~wild_target:10. ~floor:0.3 [ ([ 1; 2 ], 9., 0.2) ] <> []);
  expect "verdict same" (same_verdict ~nominal:10. ~eps:0.5 ~margin:0.01 10.2 10.3);
  expect "verdict differs" (not (same_verdict ~nominal:10. ~eps:0.5 ~margin:0.01 10.2 11.));
  expect "verdict near" (same_verdict ~nominal:10. ~eps:0.5 ~margin:0.01 10.495 10.6)
