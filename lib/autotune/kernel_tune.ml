open Bigarray
module P = Xsc_linalg.Pblas
module Kconfig = Xsc_linalg.Kconfig
module Rng = Xsc_util.Rng

(* ---- candidate spaces ---- *)

let shape_id (mr, nr) =
  let found = ref (-1) in
  Array.iteri (fun i s -> if s = (mr, nr) then found := i) P.shapes;
  if !found < 0 then invalid_arg "Kernel_tune: shape not compiled in";
  !found

let all_shape_ids () = List.init (Array.length P.shapes) Fun.id

(* quick mode: one narrow-chain, one square, one row-heavy shape — enough
   to exercise dispatch end to end in CI without a full search *)
let quick_shape_ids () = List.map shape_id [ (1, 32); (4, 8); (8, 8) ]

(* syrk runs every (mr > 1) shape as the default's 8 x 16 register tile;
   searching them would time duplicates of the default *)
let width_shape_ids () = List.map shape_id [ (1, 8); (1, 16); (1, 32) ]

let product shapes packs prefetches =
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun pack ->
          List.map
            (fun prefetch -> { P.shape; pack; prefetch })
            prefetches)
        packs)
    shapes

let candidates ~quick kernel =
  let shapes = if quick then quick_shape_ids () else all_shape_ids () in
  let prefetches = if quick then [ false ] else [ false; true ] in
  match kernel with
  | P.Gemm_nn -> product shapes [ true ] prefetches
  | P.Gemm_nt -> product shapes [ true; false ] prefetches
  | P.Syrk_ln ->
      let widths =
        if quick then List.map shape_id [ (1, 32); (1, 8) ]
        else width_shape_ids ()
      in
      product widths [ true; false ] prefetches
  (* one register-blocked sweep: trsm ignores its config *)
  | P.Trsm_rlt -> [ P.default_cfg ]

(* ---- measurement harness ----

   One heap-allocated tile per operand, filled with seeded uniforms so
   every candidate times the same data. The gemm/syrk thunks accumulate
   into c across repeats (values grow linearly — no overflow, no
   denormals); trsm restores b from a pristine copy before every solve so
   repeated in-place solves cannot drift toward denormal operands, at an
   identical per-candidate blit cost. The trsm matrix gets a dominant
   diagonal (= nb) to keep solutions O(1). *)

let flops_of kernel nb =
  match kernel with
  | P.Gemm_nn | P.Gemm_nt -> P.gemm_flops nb
  | P.Syrk_ln -> P.syrk_flops nb
  | P.Trsm_rlt -> P.trsm_flops nb

let thunk_f64 rng kernel nb =
  let n2 = nb * nb in
  let mk () =
    let buf = Array1.create float64 c_layout n2 in
    for i = 0 to n2 - 1 do
      buf.{i} <- Rng.uniform rng
    done;
    buf
  in
  match kernel with
  | P.Gemm_nn ->
      let a = mk () and b = mk () and c = mk () in
      fun () -> P.D.gemm_nn ~alpha:(-1.0) a 0 b 0 c 0 ~nb
  | P.Gemm_nt ->
      let a = mk () and b = mk () and c = mk () in
      fun () -> P.D.gemm_nt ~alpha:(-1.0) a 0 b 0 c 0 ~nb
  | P.Syrk_ln ->
      let a = mk () and c = mk () in
      fun () -> P.D.syrk_ln ~alpha:1.0 a 0 ~beta:0.5 c 0 ~nb
  | P.Trsm_rlt ->
      let a = mk () and b0 = mk () in
      let b = Array1.create float64 c_layout n2 in
      for j = 0 to nb - 1 do
        a.{(j * nb) + j} <- float_of_int nb
      done;
      fun () ->
        Array1.blit b0 b;
        P.D.trsm_rlt a 0 b 0 ~nb

let thunk_f32 rng kernel nb =
  let n2 = nb * nb in
  let mk () =
    let buf = Array1.create float32 c_layout n2 in
    for i = 0 to n2 - 1 do
      buf.{i} <- Rng.uniform rng
    done;
    buf
  in
  match kernel with
  | P.Gemm_nn ->
      let a = mk () and b = mk () and c = mk () in
      fun () -> P.S.gemm_nn ~alpha:(-1.0) a 0 b 0 c 0 ~nb
  | P.Gemm_nt ->
      let a = mk () and b = mk () and c = mk () in
      fun () -> P.S.gemm_nt ~alpha:(-1.0) a 0 b 0 c 0 ~nb
  | P.Syrk_ln ->
      let a = mk () and c = mk () in
      fun () -> P.S.syrk_ln ~alpha:1.0 a 0 ~beta:0.5 c 0 ~nb
  | P.Trsm_rlt ->
      let a = mk () and b0 = mk () in
      let b = Array1.create float32 c_layout n2 in
      for j = 0 to nb - 1 do
        a.{(j * nb) + j} <- float_of_int nb
      done;
      fun () ->
        Array1.blit b0 b;
        P.S.trsm_rlt a 0 b 0 ~nb

let make_thunk rng prec kernel nb =
  match prec with
  | P.F64 -> thunk_f64 rng kernel nb
  | P.F32 -> thunk_f32 rng kernel nb

(* Paired comparison of two configs of the SAME kernel: samples alternate
   a/b/a/b and each side takes its own median, so the slow clock and load
   drift of a shared host lands on both configs equally and cancels out of
   the comparison — the same interleaving trick the f32-vs-f64 bench uses.
   Each sample is a calibrated batch of calls (targeting ~0.3 ms) so a
   single timer read never times just a few microseconds of kernel. *)
let measure_pair ?(seed = 42) ?(rounds = 15) ~nb prec kernel cfg_a cfg_b =
  let prev = P.cfg prec kernel in
  let thunk = make_thunk (Rng.create seed) prec kernel nb in
  P.set_cfg prec kernel cfg_a;
  let t1 = Tuner.time_thunk ~warmup:2 ~repeats:3 thunk in
  let batch = max 1 (min 64 (int_of_float (ceil (3e-4 /. max 1e-9 t1)))) in
  let sample () =
    let t0 = Xsc_obs.Clock.now_ns () in
    for _ = 1 to batch do
      thunk ()
    done;
    Xsc_obs.Clock.ns_to_s (Xsc_obs.Clock.now_ns () - t0) /. float_of_int batch
  in
  (* warm cfg_b's code path too (icache, branch predictors) before timing *)
  P.set_cfg prec kernel cfg_b;
  ignore (Tuner.time_thunk ~warmup:2 ~repeats:1 thunk);
  let ta = Array.make rounds 0.0 and tb = Array.make rounds 0.0 in
  for r = 0 to rounds - 1 do
    P.set_cfg prec kernel cfg_a;
    ta.(r) <- sample ();
    P.set_cfg prec kernel cfg_b;
    tb.(r) <- sample ()
  done;
  P.set_cfg prec kernel prev;
  let fl = flops_of kernel nb in
  let rate t = if t > 0.0 then fl /. t /. 1e9 else 0.0 in
  (rate (Xsc_util.Stats.median ta), rate (Xsc_util.Stats.median tb))

(* ---- per-kernel search ---- *)

let tune_kernel ~quick ~rng ~evals prec kernel nb =
  let thunk = make_thunk rng prec kernel nb in
  let measure cfg ~repeats =
    P.set_cfg prec kernel cfg;
    incr evals;
    Tuner.time_thunk ~warmup:1 ~repeats thunk
  in
  let budget0 = if quick then 1 else 2 in
  let best =
    Search.successive_halving ~eta:2 ~candidates:(candidates ~quick kernel)
      ~budget0 (fun c ~budget -> measure c ~repeats:budget)
  in
  (* Paired head-to-head confirmation: the halving winner must beat the
     fixed default in an interleaved comparison or the default stays — a
     tuned config can never regress the host that elected it. *)
  let rounds = if quick then 7 else 15 in
  let r_default, r_winner =
    measure_pair ~rounds ~nb prec kernel P.default_cfg best.Search.candidate
  in
  evals := !evals + (2 * rounds);
  let cfg, default_gflops, tuned_gflops =
    if best.Search.candidate = P.default_cfg then
      (* the default itself won the search: both sides measured the SAME
         kernel, so reporting their ratio as a "speedup" would launder
         timing noise into the record — same config, same rate *)
      let r = max r_default r_winner in
      (P.default_cfg, r, r)
    else if r_winner >= r_default then
      (best.Search.candidate, r_default, r_winner)
    else (P.default_cfg, r_default, r_default)
  in
  P.set_cfg prec kernel cfg;
  { Kconfig.prec; kernel; cfg; default_gflops; tuned_gflops }

let tune ?(quick = false) ?nbs ?(seed = 42) () =
  let nbs =
    match nbs with
    | Some l when l <> [] -> l
    | _ -> if quick then [ 64 ] else [ 48; 64; 96 ]
  in
  let t0 = Xsc_obs.Clock.now_s () in
  let rng = Rng.create seed in
  let evals = ref 0 in
  P.reset_cfgs ();
  (* Tile size first: elect nb on the dominant kernel (f64 gemm_nn — the
     O(n^3) bulk of every factorization), then tune each kernel's variant
     at that nb. *)
  let nb =
    match nbs with
    | [ nb ] -> nb
    | _ ->
        let scored =
          List.map
            (fun nb ->
              let t = tune_kernel ~quick ~rng ~evals P.F64 P.Gemm_nn nb in
              (nb, t.Kconfig.tuned_gflops))
            nbs
        in
        fst
          (List.fold_left
             (fun (bnb, brate) (nb, rate) ->
               if rate > brate then (nb, rate) else (bnb, brate))
             (List.hd scored) (List.tl scored))
  in
  P.reset_cfgs ();
  let entries =
    List.concat_map
      (fun prec ->
        List.map
          (fun kernel -> tune_kernel ~quick ~rng ~evals prec kernel nb)
          P.all_kernels)
      P.all_precs
  in
  ( {
      Kconfig.host_key = Kconfig.host_key ();
      nb;
      search_seconds = Xsc_obs.Clock.now_s () -. t0;
      entries;
    },
    !evals )

let ensure ?(quick = false) ?path () =
  let path = match path with Some p -> p | None -> Kconfig.default_path () in
  if Kconfig.autoload ~path () then
    match Kconfig.current () with
    | Some t -> `Loaded t
    | None -> assert false
  else begin
    let c, evaluations = tune ~quick () in
    Kconfig.save ~path c;
    (* load the file back rather than [Kconfig.apply c]: registers the
       result in {!Kconfig.current} (so [tuned_nb] sees it in-process) and
       proves the cache just written round-trips on this host *)
    if not (Kconfig.autoload ~path ()) then Kconfig.apply c;
    `Tuned (c, evaluations)
  end

let entry_fields (e : Kconfig.entry) =
  let module J = Xsc_util.Json in
  let mr, nr = P.shapes.(e.cfg.P.shape) in
  [
    ("prec", J.Str (P.prec_name e.prec));
    ("kernel", J.Str (P.kernel_name e.kernel));
    ("mr", J.int mr);
    ("nr", J.int nr);
    ("pack", J.Bool e.cfg.P.pack);
    ("prefetch", J.Bool e.cfg.P.prefetch);
    ("default_gflops", J.Num e.default_gflops);
    ("tuned_gflops", J.Num e.tuned_gflops);
    ( "speedup",
      J.Num (if e.default_gflops > 0.0 then e.tuned_gflops /. e.default_gflops else 1.0) );
  ]
