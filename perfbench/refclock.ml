(* Reference-normalised stopwatch.

   On a shared host the same code runs at two speeds that alternate in
   stretches of 50 ms to a minute: on a 2-vCPU VM the natural-leaf solve
   took 5 ms in some stretches and 8 ms in others.  Raw wall time then
   moves more between two sets of runs than any bound worth keeping.  So
   a timer interrupts the work every 10 ms to time a fixed reference
   kernel, owned by the benchmark and never changed by program edits,
   and work is reported in reference seconds: each stretch of work
   between two readings is scaled by (nominal / local) ^ sensitivity,
   where local is the mean of the two readings around it and nominal is
   the kernel's time in the host's fast stretches.  A program change moves the work, not the
   kernel, so it shows in full; a slower host moves both.

   The kernel, small allocating float vector updates, stays in cache
   whatever the program did just before.  It tracked all four workloads
   as closely as kernels shaped like their hot loops (a dense triangular
   solve, sparse indexed products) did, so there is one kernel. *)

let now = Obs.Clock.now_ns

(* Classic RK4 stages of a 24-state nonlinear chain, allocating fresh
   arrays per stage as the program's integrators do. *)
let kernel () =
  let n = 24 in
  let f y =
    Array.init n (fun i ->
        let a = y.(i) and b = y.((i + 1) mod n) in
        (0.5 *. b /. (0.3 +. b)) -. (a *. exp (-0.1 *. a)) +. 0.01)
  in
  let h = 0.01 in
  let y = ref (Array.make n 1.) in
  for _ = 1 to 60 do
    let stage k c = Array.mapi (fun i v -> v +. (c *. h *. k.(i))) !y in
    let k1 = f !y in
    let k2 = f (stage k1 0.5) in
    let k3 = f (stage k2 0.5) in
    let k4 = f (stage k3 1.) in
    y :=
      Array.mapi
        (fun i v -> v +. (h /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i))))
        !y
  done;
  ignore (Sys.opaque_identity !y)

(* Fastest of two back-to-back kernel runs, in ns, in the fast stretches
   of a 2-vCPU Intel Xeon VM (OCaml 5.1.1): the speed the normalised
   figures are expressed at. *)
let nominal_ns = 100_000.

(* The program's code slows more than the kernel when the host is
   contended: over repeated runs of one seed at different host speeds its
   slowdown was the kernel's to the power 1.27 (geobacter), 1.33-1.41
   (photo, three seeds) and about 1.6 (robust, one noisy pair), while
   lp_sweep's run-to-run variation did not follow the host speed.  Work is
   scaled by (nominal / local) to this power. *)
let sensitivity = 1.35

type reading = { r_start : int; r_end : int; r_best : int; r_words : float }

type t = {
  mutable readings : reading array;
  mutable n : int;
  mutable read_ns : int;  (** time spent taking readings *)
  mutable busy : bool;    (** a reading is in progress *)
}

let take t =
  t.busy <- true;
  let w0 = Gc.minor_words () in
  let r_start = now () in
  let best = ref max_int in
  for _ = 1 to 2 do
    let a = now () in
    kernel ();
    best := Int.min !best (now () - a)
  done;
  let r_end = now () in
  let r = { r_start; r_end; r_best = !best; r_words = Gc.minor_words () -. w0 } in
  if t.n = Array.length t.readings then t.readings <- Array.append t.readings (Array.make t.n r);
  t.readings.(t.n) <- r;
  t.n <- t.n + 1;
  t.read_ns <- t.read_ns + (r_end - r_start);
  t.busy <- false;
  t.n - 1

(* Start taking a reading every 10 ms of wall time.  The handler runs at
   the program's next safe point, between any two of its instructions
   that allocate or poll, so readings land inside long library calls
   too. *)
let create () =
  kernel ();
  let t =
    { readings = Array.make 4096 { r_start = 0; r_end = 0; r_best = 0; r_words = 0. };
      n = 0; read_ns = 0; busy = false }
  in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> if not t.busy then ignore (take t)));
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.01; it_value = 0.01 });
  t

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigalrm Sys.Signal_default

(* Take a reading now, to bound a phase; returns its index. *)
let mark t = take t

(* Time spent in readings so far, to take out of a call's duration. *)
let read_ns t = t.read_ns

(* Local speed over the gap after reading [k]: the mean of the readings
   on either side. *)
let local t k = 0.5 *. float_of_int (t.readings.(k).r_best + t.readings.(k + 1).r_best)

type span = {
  raw_s : float;    (** wall time between the two marks, readings excluded *)
  norm_s : float;   (** the same work in reference seconds *)
  ref_words : float;  (** words the readings strictly inside allocated *)
  readings : int;   (** readings strictly inside *)
}

(* The work between marks [i] and [j]. *)
let span (t : t) i j =
  let raw = ref 0 and norm = ref 0. and words = ref 0. in
  for k = i to j - 1 do
    let busy = t.readings.(k + 1).r_start - t.readings.(k).r_end in
    raw := !raw + busy;
    norm := !norm +. (float_of_int busy *. ((nominal_ns /. local t k) ** sensitivity));
    if k > i then words := !words +. t.readings.(k).r_words
  done;
  { raw_s = float_of_int !raw /. 1e9; norm_s = !norm /. 1e9; ref_words = !words; readings = j - i - 1 }

(* Median, 10th and 90th percentile reading in ms: how fast the host
   ran and how much its speed moved during the run. *)
let summary t =
  let all = Array.init t.n (fun k -> t.readings.(k).r_best) in
  Array.sort compare all;
  let q p = float_of_int all.(int_of_float (p *. float_of_int (t.n - 1))) /. 1e6 in
  (q 0.5, q 0.1, q 0.9, t.n)
