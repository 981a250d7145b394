(* Tests for Xsc_runtime: task accesses, DAG dependence inference, schedule
   simulation, the work-stealing deque, real multicore execution, traces. *)

module Task = Xsc_runtime.Task
module Dag = Xsc_runtime.Dag
module Sim_exec = Xsc_runtime.Sim_exec
module Real_exec = Xsc_runtime.Real_exec
module Pool = Xsc_runtime.Pool
module Deque = Xsc_runtime.Deque
module Trace = Xsc_runtime.Trace
module Rng = Xsc_util.Rng

let qcheck tc = QCheck_alcotest.to_alcotest tc

let task ?(flops = 1e6) ?run id accesses = Task.make ~id ~name:(string_of_int id) ~flops ?run accesses

(* ---- Task ---- *)

let test_task_reads_writes () =
  let t = task 0 [ Task.Read 1; Task.Write 2; Task.Read_write 3 ] in
  Alcotest.(check (list int)) "reads" [ 1; 3 ] (List.sort compare (Task.reads t));
  Alcotest.(check (list int)) "writes" [ 2; 3 ] (List.sort compare (Task.writes t))

let test_task_datum () =
  Alcotest.(check int) "linearised" 23 (Task.datum 2 3 ~stride:10)

let test_task_negative_flops () =
  Alcotest.check_raises "negative" (Invalid_argument "Task.make: negative weight") (fun () ->
      ignore (Task.make ~id:0 ~name:"t" ~flops:(-1.0) []))

(* ---- Dag dependence inference ---- *)

let test_dag_raw () =
  (* t0 writes d, t1 reads d: RAW edge *)
  let d = Dag.build [ task 0 [ Task.Write 0 ]; task 1 [ Task.Read 0 ] ] in
  Alcotest.(check (list int)) "edge 0->1" [ 1 ] d.Dag.succs.(0);
  Alcotest.(check int) "depth 2" 2 (Dag.depth d)

let test_dag_war () =
  (* t0 reads d, t1 writes d: WAR edge *)
  let d = Dag.build [ task 0 [ Task.Read 0 ]; task 1 [ Task.Write 0 ] ] in
  Alcotest.(check (list int)) "edge 0->1" [ 1 ] d.Dag.succs.(0)

let test_dag_waw () =
  let d = Dag.build [ task 0 [ Task.Write 0 ]; task 1 [ Task.Write 0 ] ] in
  Alcotest.(check (list int)) "edge 0->1" [ 1 ] d.Dag.succs.(0)

let test_dag_independent_readers () =
  (* two readers of the same datum are NOT ordered *)
  let d =
    Dag.build
      [ task 0 [ Task.Write 0 ]; task 1 [ Task.Read 0 ]; task 2 [ Task.Read 0 ] ]
  in
  Alcotest.(check int) "depth 2" 2 (Dag.depth d);
  Alcotest.(check (list int)) "both readers in level 1" [ 1; 2 ] d.Dag.levels.(1)

let test_dag_independent_data () =
  let d = Dag.build [ task 0 [ Task.Write 0 ]; task 1 [ Task.Write 1 ] ] in
  Alcotest.(check int) "no edges" 0 (Dag.n_edges d);
  Alcotest.(check int) "depth 1" 1 (Dag.depth d)

let test_dag_rw_chain () =
  (* accumulations serialise *)
  let d =
    Dag.build
      [ task 0 [ Task.Read_write 0 ]; task 1 [ Task.Read_write 0 ]; task 2 [ Task.Read_write 0 ] ]
  in
  Alcotest.(check int) "chain depth" 3 (Dag.depth d)

let test_dag_diamond () =
  (* 0 -> {1, 2} -> 3 *)
  let d =
    Dag.build
      [
        task 0 [ Task.Write 0 ];
        task 1 [ Task.Read 0; Task.Write 1 ];
        task 2 [ Task.Read 0; Task.Write 2 ];
        task 3 [ Task.Read 1; Task.Read 2 ];
      ]
  in
  Alcotest.(check int) "edges" 4 (Dag.n_edges d);
  Alcotest.(check int) "depth" 3 (Dag.depth d);
  Alcotest.(check (list int)) "sources" [ 0 ] (Dag.sources d);
  Alcotest.(check (list int)) "indegree of join" [ 1; 2 ]
    (List.sort compare d.Dag.preds.(3))

let test_dag_numbering_check () =
  Alcotest.check_raises "bad ids" (Invalid_argument "Dag.build: tasks must be numbered in order")
    (fun () -> ignore (Dag.build [ task 5 [] ]))

let test_dag_flops () =
  let d =
    Dag.build
      [ task ~flops:10.0 0 [ Task.Write 0 ]; task ~flops:20.0 1 [ Task.Read 0 ];
        task ~flops:5.0 2 [ Task.Write 9 ] ]
  in
  Alcotest.(check (float 0.0)) "total" 35.0 (Dag.total_flops d);
  Alcotest.(check (float 0.0)) "critical path" 30.0 (Dag.critical_path_flops d);
  let bl = Dag.bottom_level d in
  Alcotest.(check (float 0.0)) "bottom level source" 30.0 bl.(0);
  Alcotest.(check (float 0.0)) "bottom level sink" 20.0 bl.(1)

let test_validate_schedule () =
  let d =
    Dag.build [ task 0 [ Task.Write 0 ]; task 1 [ Task.Read 0 ]; task 2 [ Task.Write 5 ] ]
  in
  Alcotest.(check bool) "valid order" true (Dag.validate_schedule d ~order:[ 2; 0; 1 ]);
  Alcotest.(check bool) "violates dependence" false (Dag.validate_schedule d ~order:[ 1; 0; 2 ]);
  Alcotest.(check bool) "missing task" false (Dag.validate_schedule d ~order:[ 0; 1 ]);
  Alcotest.(check bool) "duplicate" false (Dag.validate_schedule d ~order:[ 0; 0; 1 ])

(* random DAG generator for property tests: random accesses over few data *)
let random_tasks seed n =
  let rng = Rng.create seed in
  List.init n (fun id ->
      let n_acc = 1 + Rng.int rng 3 in
      let accesses =
        List.init n_acc (fun _ ->
            let d = Rng.int rng 6 in
            match Rng.int rng 3 with
            | 0 -> Task.Read d
            | 1 -> Task.Write d
            | _ -> Task.Read_write d)
      in
      task ~flops:(1e5 +. Rng.float rng 1e6) id accesses)

let prop_policies_produce_valid_schedules =
  QCheck.Test.make ~name:"every policy yields a valid topological order" ~count:40
    QCheck.(pair (int_range 1 60) (int_range 1 32))
    (fun (n, workers) ->
      let dag = Dag.build (random_tasks (n * 7) n) in
      let cfg = Sim_exec.config ~workers ~rate:1e9 () in
      List.for_all
        (fun policy ->
          let r = Sim_exec.run cfg policy dag in
          Dag.validate_schedule dag ~order:r.Sim_exec.order)
        [ Sim_exec.Bsp; Sim_exec.List_critical_path; Sim_exec.List_fifo; Sim_exec.Work_stealing 3 ])

let prop_makespan_bounds =
  QCheck.Test.make ~name:"makespan >= max(throughput bound, span bound)" ~count:40
    QCheck.(pair (int_range 1 60) (int_range 1 16))
    (fun (n, workers) ->
      let dag = Dag.build (random_tasks (n * 13) n) in
      let cfg = Sim_exec.config ~task_overhead:0.0 ~barrier_cost:0.0 ~workers ~rate:1e9 () in
      List.for_all
        (fun policy ->
          let r = Sim_exec.run cfg policy dag in
          r.Sim_exec.makespan +. 1e-12 >= Sim_exec.perfect_time cfg dag
          && r.Sim_exec.makespan +. 1e-12 >= Sim_exec.critical_time cfg dag)
        [ Sim_exec.Bsp; Sim_exec.List_critical_path; Sim_exec.List_fifo ])

let test_single_worker_serialises () =
  let dag = Dag.build (random_tasks 99 20) in
  let cfg = Sim_exec.config ~task_overhead:0.0 ~barrier_cost:0.0 ~workers:1 ~rate:1e9 () in
  let r = Sim_exec.run cfg Sim_exec.List_fifo dag in
  Alcotest.(check (float 1e-9)) "makespan = total work" (Sim_exec.perfect_time cfg dag)
    r.Sim_exec.makespan;
  Alcotest.(check bool) "utilization ~ 1" true (r.Sim_exec.utilization > 0.999)

let test_dag_beats_bsp_on_cholesky_shape () =
  (* a wide, staircase-dependent DAG: list scheduling should beat BSP *)
  let nt = 8 in
  let dag = Xsc_core.Cholesky.dag_ops ~nt ~nb:8 in
  let cfg = Sim_exec.config ~workers:8 ~rate:1e9 () in
  let bsp = Sim_exec.run cfg Sim_exec.Bsp dag in
  let dyn = Sim_exec.run cfg Sim_exec.List_critical_path dag in
  Alcotest.(check bool) "dataflow at least as fast" true
    (dyn.Sim_exec.makespan <= bsp.Sim_exec.makespan);
  Alcotest.(check int) "bsp barrier count = depth" (Dag.depth dag) bsp.Sim_exec.barriers

let test_comm_cost_slows_things () =
  let dag = Dag.build (random_tasks 7 40) in
  let free = Sim_exec.config ~workers:4 ~rate:1e9 () in
  let costly =
    Sim_exec.config ~comm_cost:(fun ~bytes:_ -> 1e-3) ~workers:4 ~rate:1e9 ()
  in
  let r_free = Sim_exec.run free Sim_exec.List_critical_path dag in
  let r_costly = Sim_exec.run costly Sim_exec.List_critical_path dag in
  Alcotest.(check bool) "comm increases makespan" true
    (r_costly.Sim_exec.makespan >= r_free.Sim_exec.makespan);
  Alcotest.(check (float 0.0)) "no comm time when free" 0.0 r_free.Sim_exec.comm_time

let test_work_stealing_deterministic_per_seed () =
  let dag = Dag.build (random_tasks 21 50) in
  let cfg = Sim_exec.config ~workers:4 ~rate:1e9 () in
  let r1 = Sim_exec.run cfg (Sim_exec.Work_stealing 5) dag in
  let r2 = Sim_exec.run cfg (Sim_exec.Work_stealing 5) dag in
  Alcotest.(check (float 0.0)) "same seed same makespan" r1.Sim_exec.makespan r2.Sim_exec.makespan

(* ---- Deque ---- *)

let test_deque_owner_lifo () =
  (* capacity 4 forces several growths along the way *)
  let d = Deque.create ~capacity:4 () in
  for i = 0 to 99 do
    Deque.push d i
  done;
  Alcotest.(check int) "size" 100 (Deque.size d);
  let popped = List.init 100 (fun _ -> Option.get (Deque.pop d)) in
  Alcotest.(check (list int)) "LIFO order" (List.init 100 (fun i -> 99 - i)) popped;
  Alcotest.(check bool) "drained" true (Deque.pop d = None)

let test_deque_steal_fifo () =
  let d = Deque.create () in
  for i = 0 to 49 do
    Deque.push d i
  done;
  let stolen =
    List.init 50 (fun _ ->
        match Deque.steal d with Deque.Stolen v -> v | Deque.Empty | Deque.Abort -> -1)
  in
  Alcotest.(check (list int)) "FIFO order" (List.init 50 (fun i -> i)) stolen;
  Alcotest.(check bool) "empty after" true (Deque.steal d = Deque.Empty)

let test_deque_mixed_ends () =
  let d = Deque.create ~capacity:2 () in
  Deque.push d 1;
  Deque.push d 2;
  Deque.push d 3;
  Alcotest.(check (option int)) "pop takes newest" (Some 3) (Deque.pop d);
  (match Deque.steal d with
  | Deque.Stolen v -> Alcotest.(check int) "steal takes oldest" 1 v
  | Deque.Empty | Deque.Abort -> Alcotest.fail "steal failed on non-empty deque");
  Alcotest.(check (option int)) "pop takes the survivor" (Some 2) (Deque.pop d);
  Alcotest.(check (option int)) "drained" None (Deque.pop d);
  Alcotest.(check bool) "empty to thieves too" true (Deque.steal d = Deque.Empty)

(* Concurrency property: with an owner pushing/popping and several thief
   domains stealing, every pushed id is consumed exactly once — nothing
   lost, nothing duplicated. *)
let prop_deque_concurrent_thieves =
  QCheck.Test.make ~name:"deque: no lost or duplicated items under concurrent thieves"
    ~count:5
    QCheck.(pair (int_range 200 2000) (int_range 1 4))
    (fun (n, nthieves) ->
      let d = Deque.create ~capacity:8 () in
      let stop = Atomic.make false in
      let thief () =
        let acc = ref [] in
        let rec go () =
          match Deque.steal d with
          | Deque.Stolen v ->
            acc := v :: !acc;
            go ()
          | Deque.Abort -> go ()
          | Deque.Empty ->
            if Atomic.get stop then !acc
            else begin
              Domain.cpu_relax ();
              go ()
            end
        in
        go ()
      in
      let thieves = List.init nthieves (fun _ -> Domain.spawn thief) in
      let owner_acc = ref [] in
      for i = 0 to n - 1 do
        Deque.push d i;
        (* interleave pops so the owner also races thieves for the bottom *)
        if i land 3 = 0 then
          match Deque.pop d with Some v -> owner_acc := v :: !owner_acc | None -> ()
      done;
      let rec drain () =
        match Deque.pop d with
        | Some v ->
          owner_acc := v :: !owner_acc;
          drain ()
        | None -> ()
      in
      drain ();
      Atomic.set stop true;
      let stolen = List.concat_map Domain.join thieves in
      let all = List.sort compare (!owner_acc @ stolen) in
      all = List.init n (fun i -> i))

(* ---- Real executor ---- *)

(* build a DAG of tasks with real closures: each task appends its id to a
   shared per-datum cell with the dependences enforcing a unique final
   value; then compare against sequential execution. *)
let accumulation_dag n =
  let cells = Array.make 4 0.0 in
  let tasks =
    List.init n (fun id ->
        let d = id mod 4 in
        let run () =
          (* non-commutative update makes ordering violations visible *)
          cells.(d) <- (cells.(d) *. 1.000001) +. float_of_int id
        in
        Task.make ~id ~name:(string_of_int id) ~flops:1.0 ~run
          [ Task.Read_write d ])
  in
  (Dag.build tasks, cells)

let test_real_sequential () =
  let dag, cells = accumulation_dag 40 in
  let stats = Real_exec.run_sequential dag in
  Alcotest.(check int) "all tasks ran" 40 stats.Real_exec.tasks;
  let dag2, cells2 = accumulation_dag 40 in
  ignore (Real_exec.run_sequential dag2);
  Alcotest.(check (array (float 0.0))) "deterministic" cells cells2

let test_real_dataflow_matches_sequential () =
  let dag_seq, cells_seq = accumulation_dag 60 in
  ignore (Real_exec.run_sequential dag_seq);
  let dag_par, cells_par = accumulation_dag 60 in
  let stats = Pool.run_once ~workers:4 dag_par in
  Alcotest.(check int) "all tasks ran" 60 stats.Real_exec.tasks;
  (* per-datum chains are serialised by Read_write dependences, so the
     result must be bitwise identical to sequential execution *)
  Alcotest.(check (array (float 0.0))) "same result in parallel" cells_seq cells_par

let test_real_forkjoin_matches_sequential () =
  let dag_seq, cells_seq = accumulation_dag 60 in
  ignore (Real_exec.run_sequential dag_seq);
  let dag_par, cells_par = accumulation_dag 60 in
  let stats = Real_exec.run_forkjoin ~workers:4 dag_par in
  Alcotest.(check int) "all tasks ran" 60 stats.Real_exec.tasks;
  Alcotest.(check (array (float 0.0))) "same result" cells_seq cells_par

let test_real_dataflow_parallel_independent () =
  (* independent tasks with real work: all must complete *)
  let counter = Atomic.make 0 in
  let tasks =
    List.init 32 (fun id ->
        Task.make ~id ~name:"inc" ~flops:1.0
          ~run:(fun () -> Atomic.incr counter)
          [ Task.Write id ])
  in
  let stats = Pool.run_once ~workers:4 (Dag.build tasks) in
  Alcotest.(check int) "all ran exactly once" 32 (Atomic.get counter);
  Alcotest.(check bool) "elapsed sane" true (stats.Real_exec.elapsed >= 0.0)

(* Domain ids are handed out in spawn order, so the id of a probe domain
   tells how many domains were spawned since the previous probe. *)
let probe_domain_id () = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

let test_real_missing_closure () =
  let dag =
    Dag.build
      [
        task ~run:ignore 0 [ Task.Write 0 ];
        Task.make ~id:1 ~name:"bare" ~flops:1.0 [ Task.Read 0 ];
      ]
  in
  let before = probe_domain_id () in
  Alcotest.check_raises "no body" (Invalid_argument "Real_exec: task without body: bare")
    (fun () -> ignore (Pool.run_once ~workers:4 dag));
  Alcotest.(check int) "rejected before spawning a worker" (before + 1) (probe_domain_id ())

(* Closure-free dispatch: op-encoded tasks run through a single interpreter
   with no per-task closures, on every executor. The Gemm coordinates are
   folded non-commutatively so ordering violations would change the sum. *)
let op_dag n =
  List.init n (fun id ->
      let d = id mod 4 in
      Task.make ~id ~name:(Task.op_name (Task.Gemm (id, d, 0))) ~flops:1.0
        ~op:(Task.Gemm (id, d, 0))
        [ Task.Read_write d ])
  |> Dag.build

let run_op_dag run =
  let cells = Array.make 4 0.0 in
  let interp = function
    | Task.Gemm (i, d, _) -> cells.(d) <- (cells.(d) *. 1.000001) +. float_of_int i
    | op -> invalid_arg (Task.op_name op)
  in
  let stats = run ~interp (op_dag 60) in
  (stats, cells)

let test_op_dispatch_all_executors () =
  let seq, cells_seq = run_op_dag (fun ~interp d -> Real_exec.run_sequential ~interp d) in
  Alcotest.(check int) "sequential ran all" 60 seq.Real_exec.tasks;
  let df, cells_df =
    run_op_dag (fun ~interp d -> Pool.run_once ~interp ~workers:4 d)
  in
  Alcotest.(check int) "dataflow ran all" 60 df.Real_exec.tasks;
  Alcotest.(check (array (float 0.0))) "dataflow matches sequential" cells_seq cells_df;
  let fj, cells_fj =
    run_op_dag (fun ~interp d -> Real_exec.run_forkjoin ~interp ~workers:4 d)
  in
  Alcotest.(check int) "forkjoin ran all" 60 fj.Real_exec.tasks;
  Alcotest.(check (array (float 0.0))) "forkjoin matches sequential" cells_seq cells_fj

let test_op_without_interp_rejected () =
  (* an op-encoded task has no closure: running without an interpreter must
     fail up front, not mid-flight *)
  let dag = Dag.build [ Task.make ~id:0 ~name:"op" ~flops:1.0 ~op:(Task.Potrf 0) [ Task.Write 0 ] ] in
  Alcotest.check_raises "no interp" (Invalid_argument "Real_exec: task without body: op")
    (fun () -> ignore (Pool.run_once ~workers:2 dag))

let test_op_name () =
  Alcotest.(check string) "potrf" "potrf(2,2)" (Task.op_name (Task.Potrf 2));
  Alcotest.(check string) "trsm" "trsm(3,1)" (Task.op_name (Task.Trsm (1, 3)));
  Alcotest.(check string) "gemm" "gemm(3,2,1)" (Task.op_name (Task.Gemm (3, 2, 1)));
  Alcotest.(check string) "trsm_l" "trsm_l(0,2)" (Task.op_name (Task.Trsm_l (0, 2)))

let test_real_empty_dag () =
  let stats = Pool.run_once ~workers:4 (Dag.build []) in
  Alcotest.(check int) "no tasks" 0 stats.Real_exec.tasks

let test_default_workers () =
  let w = Real_exec.default_workers () in
  Alcotest.(check bool) "1..8" true (w >= 1 && w <= 8)

(* ---- executor fault paths: a raising task body must abort the run
   cleanly (ready queues dropped, parked workers woken, domains joined) and
   surface as Task_failed carrying the task's identity ---- *)

let failing_chain n fail_at =
  let counter = Atomic.make 0 in
  let tasks =
    List.init n (fun id ->
        let run () = if id = fail_at then failwith "boom" else Atomic.incr counter in
        Task.make ~id ~name:(Printf.sprintf "t%d" id) ~flops:1.0 ~run [ Task.Read_write 0 ])
  in
  (Dag.build tasks, counter)

let check_task_failed name run =
  let dag, counter = failing_chain 50 25 in
  match run dag with
  | (_ : Real_exec.stats) -> Alcotest.failf "%s: expected Task_failed" name
  | exception Real_exec.Task_failed f ->
    Alcotest.(check int) (name ^ ": failing task id") 25 f.Real_exec.failed_task;
    Alcotest.(check string) (name ^ ": failing task name") "t25" f.Real_exec.failed_name;
    (match f.Real_exec.error with
    | Failure m -> Alcotest.(check string) (name ^ ": original exn kept") "boom" m
    | e -> Alcotest.failf "%s: unexpected error %s" name (Printexc.to_string e));
    (* the chain serialises everything, so exactly the 25 predecessors ran
       and no dependent of the failed task ever started *)
    Alcotest.(check int) (name ^ ": frontier stopped at the fault") 25 (Atomic.get counter)

let test_task_failed_sequential () =
  check_task_failed "sequential" (fun d -> Real_exec.run_sequential d)

let test_task_failed_dataflow () =
  (* repeated runs shake out lost-wakeup races in the abort path: the chain
     keeps at most one task ready, so three of the four workers are parked
     on the idle condvar when the failure fires — a missed broadcast would
     deadlock the join *)
  for _ = 1 to 20 do
    check_task_failed "dataflow" (fun d -> Pool.run_once ~workers:4 d)
  done

let test_task_failed_forkjoin () =
  for _ = 1 to 20 do
    check_task_failed "forkjoin" (fun d -> Real_exec.run_forkjoin ~workers:4 d)
  done

let test_task_failed_wide_dataflow () =
  (* failure while independent work is genuinely in flight on other
     workers: the run must still terminate and report the failure *)
  for _ = 1 to 10 do
    let tasks =
      List.init 64 (fun id ->
          let run () = if id = 40 then failwith "mid" else () in
          Task.make ~id ~name:(Printf.sprintf "w%d" id) ~flops:1.0 ~run [ Task.Write id ])
    in
    match Pool.run_once ~workers:4 (Dag.build tasks) with
    | _ -> Alcotest.fail "expected Task_failed"
    | exception Real_exec.Task_failed f ->
      Alcotest.(check int) "failed id" 40 f.Real_exec.failed_task
  done

let test_executor_reusable_after_failure () =
  (* an aborted run must leave no residue that breaks the next run *)
  let dag, _ = failing_chain 20 10 in
  (try ignore (Pool.run_once ~workers:4 dag) with Real_exec.Task_failed _ -> ());
  let dag_ok, cells = accumulation_dag 40 in
  let stats = Pool.run_once ~workers:4 dag_ok in
  Alcotest.(check int) "clean run completes" 40 stats.Real_exec.tasks;
  let dag_ref, cells_ref = accumulation_dag 40 in
  ignore (Real_exec.run_sequential dag_ref);
  Alcotest.(check (array (float 0.0))) "clean run correct" cells_ref cells

let test_task_failures_counted () =
  let value () =
    match List.assoc_opt "runtime.task_failures" (Xsc_obs.Metrics.snapshot ()) with
    | Some (Xsc_obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  let before = value () in
  let dag, _ = failing_chain 10 5 in
  (try ignore (Real_exec.run_sequential dag) with Real_exec.Task_failed _ -> ());
  Alcotest.(check int) "failure tallied" (before + 1) (value ())

(* qcheck oracle over random accumulation DAGs: the work-stealing executor
   must reproduce sequential results bit-for-bit at any worker count. *)
let prop_dataflow_bitwise_oracle =
  QCheck.Test.make ~name:"dataflow = sequential bitwise on random DAGs" ~count:15
    QCheck.(pair (int_range 8 80) (int_range 1 8))
    (fun (n, workers) ->
      let dag_seq, cells_seq = accumulation_dag n in
      ignore (Real_exec.run_sequential dag_seq);
      let dag_par, cells_par = accumulation_dag n in
      let stats = Pool.run_once ~workers dag_par in
      stats.Real_exec.tasks = n && cells_seq = cells_par)

(* ---- oracle: tiled factorizations on real domains ---- *)

module Tile = Xsc_tile.Tile
module Mat = Xsc_linalg.Mat

let tiles_bitwise_equal (a : Tile.t) (b : Tile.t) =
  a.Tile.mt = b.Tile.mt && a.Tile.nt = b.Tile.nt
  &&
  let ok = ref true in
  for i = 0 to a.Tile.mt - 1 do
    for j = 0 to a.Tile.nt - 1 do
      (* structural equality on the float arrays: bit-for-bit, not approx *)
      if (Tile.tile a i j).Mat.data <> (Tile.tile b i j).Mat.data then ok := false
    done
  done;
  !ok

(* For each factorization, run the sequential oracle once, then check every
   executor variant at workers in {1, 2, 4, 8} reproduces the exact same
   tiles: the dependence edges serialise every numerically non-commuting
   pair of kernels, so any scheduling bug shows up as a bitwise diff. *)
let factorization_oracle ~name ~dag_ops ~interp_of ~make_input sizes =
  List.iter
    (fun (nt, nb) ->
      let input = make_input ~nt ~nb in
      let dag = dag_ops ~nt ~nb in
      let seq_tiles = Tile.of_mat ~nb input in
      ignore (Real_exec.run_sequential ~interp:(interp_of seq_tiles) dag);
      let check_variant variant_name run =
        let tiles = Tile.of_mat ~nb input in
        ignore (run ~interp:(interp_of tiles) dag);
        Alcotest.(check bool)
          (Printf.sprintf "%s nt=%d nb=%d %s" name nt nb variant_name)
          true
          (tiles_bitwise_equal seq_tiles tiles)
      in
      List.iter
        (fun workers ->
          let w = string_of_int workers in
          check_variant ("dataflow w=" ^ w) (fun ~interp dag ->
              Pool.run_once ~interp ~workers dag);
          check_variant ("forkjoin w=" ^ w) (fun ~interp dag ->
              Real_exec.run_forkjoin ~interp ~workers dag))
        [ 1; 2; 4; 8 ])
    sizes

let test_oracle_cholesky () =
  let rng = Rng.create 42 in
  factorization_oracle ~name:"cholesky"
    ~dag_ops:Xsc_core.Cholesky.dag_ops ~interp_of:Xsc_core.Cholesky.tile_interp
    ~make_input:(fun ~nt ~nb -> Mat.random_spd rng (nt * nb))
    [ (4, 8); (6, 4) ]

let test_oracle_lu () =
  let rng = Rng.create 43 in
  factorization_oracle ~name:"lu"
    ~dag_ops:Xsc_core.Lu.dag_ops ~interp_of:Xsc_core.Lu.tile_interp
    ~make_input:(fun ~nt ~nb -> Mat.random_diag_dominant rng (nt * nb))
    [ (4, 8); (6, 4) ]

let test_dataflow_stats_reported () =
  (* a wide independent DAG at 4 workers: the run must report non-negative
     steal/park counters and complete every task *)
  let counter = Atomic.make 0 in
  let tasks =
    List.init 64 (fun id ->
        Task.make ~id ~name:"inc" ~flops:1.0
          ~run:(fun () -> Atomic.incr counter)
          [ Task.Write id ])
  in
  let stats = Pool.run_once ~workers:4 (Dag.build tasks) in
  Alcotest.(check int) "all ran" 64 (Atomic.get counter);
  Alcotest.(check bool) "steals >= 0" true (stats.Real_exec.steals >= 0);
  Alcotest.(check bool) "parks >= 0" true (stats.Real_exec.parks >= 0)

(* ---- Trace ---- *)

let test_trace_metrics () =
  let t = Trace.create ~workers:2 in
  Trace.add t { Trace.task = 0; name = "a"; worker = 0; start = 0.0; finish = 2.0 };
  Trace.add t { Trace.task = 1; name = "b"; worker = 1; start = 1.0; finish = 2.0 };
  Alcotest.(check (float 0.0)) "makespan" 2.0 (Trace.makespan t);
  Alcotest.(check (float 0.0)) "busy" 3.0 (Trace.busy_time t);
  Alcotest.(check (float 1e-12)) "utilization" 0.75 (Trace.utilization t);
  Alcotest.(check int) "entries sorted by start" 0
    (List.hd (Trace.entries t)).Trace.task

let test_trace_gantt () =
  let t = Trace.create ~workers:2 in
  Trace.add t { Trace.task = 0; name = "a"; worker = 0; start = 0.0; finish = 1.0 };
  let g = Trace.gantt ~width:20 t in
  Alcotest.(check bool) "has rows" true (String.length g > 20);
  Alcotest.(check bool) "busy marker present" true (String.contains g '#')

let test_trace_validation () =
  let t = Trace.create ~workers:1 in
  Alcotest.check_raises "bad worker" (Invalid_argument "Trace.add: bad worker") (fun () ->
      Trace.add t { Trace.task = 0; name = "x"; worker = 3; start = 0.0; finish = 1.0 })

let test_trace_chrome_json () =
  let t = Trace.create ~workers:2 in
  Trace.add t { Trace.task = 5; name = "gemm(1,\"2\")"; worker = 1; start = 1e-3; finish = 2e-3 };
  let json = Trace.to_chrome_json t in
  let module Json = Xsc_util.Json in
  Alcotest.(check bool) "is an array" true
    (json.[0] = '[' && json.[String.length json - 1] = ']');
  Alcotest.(check bool) "has the event" true
    (match Json.parse json with
    | Json.List [ ev ] -> Json.member "ph" ev = Some (Json.Str "X")
    | _ -> false);
  Alcotest.(check bool) "quotes escaped" true
    (let sub = {|\"2\"|} in
     let rec contains i =
       i + String.length sub <= String.length json
       && (String.sub json i (String.length sub) = sub || contains (i + 1))
     in
     contains 0);
  (* quote, backslash and tab in one name: the escaped output parses back
     to the original name *)
  let name = "csum\"q\\b\tt" in
  let t = Trace.create ~workers:1 in
  Trace.add t { Trace.task = 0; name; worker = 0; start = 0.0; finish = 1e-3 };
  (match Json.parse (Trace.to_chrome_json t) with
  | Json.List [ ev ] ->
    Alcotest.(check (option string)) "name round-trips" (Some name)
      (match Json.member "name" ev with Some (Json.Str s) -> Some s | _ -> None)
  | _ -> Alcotest.fail "expected one event");
  (* request-lane span events merge into the worker trace's array, with
     and without worker entries before them *)
  let span ~span ~parent ~start_ns =
    { Xsc_obs.Span.request = 3; span; parent; phase = "attempt"; name = "a"; lane = 0;
      attempt = 0; start_ns; finish_ns = start_ns + 50 }
  in
  let extra =
    Xsc_obs.Span.chrome_events ~origin_ns:0
      [ span ~span:1 ~parent:(-1) ~start_ns:0; span ~span:2 ~parent:1 ~start_ns:10 ]
  in
  let merged tr =
    match Json.parse (Trace.to_chrome_json ~extra tr) with
    | Json.List evs -> List.length evs
    | _ -> Alcotest.fail "merged trace is not an array"
  in
  Alcotest.(check int) "no entries: span events only" (List.length extra)
    (merged (Trace.create ~workers:1));
  Alcotest.(check int) "entries then span events" (1 + List.length extra) (merged t)

let test_trace_by_kernel () =
  let t = Trace.create ~workers:2 in
  Trace.add t { Trace.task = 0; name = "gemm(0,0,0)"; worker = 0; start = 0.0; finish = 2.0 };
  Trace.add t { Trace.task = 1; name = "gemm(1,0,0)"; worker = 1; start = 0.0; finish = 3.0 };
  Trace.add t { Trace.task = 2; name = "potrf(0)"; worker = 0; start = 2.0; finish = 3.0 };
  (match Trace.by_kernel t with
  | [ ("gemm", gt, gc); ("potrf", pt, pc) ] ->
    Alcotest.(check (float 0.0)) "gemm time" 5.0 gt;
    Alcotest.(check int) "gemm count" 2 gc;
    Alcotest.(check (float 0.0)) "potrf time" 1.0 pt;
    Alcotest.(check int) "potrf count" 1 pc
  | other ->
    Alcotest.failf "unexpected profile (%d families)" (List.length other))

let test_trace_utilization_zero_makespan () =
  (* regression: a trace whose entries all have zero duration must not
     divide by zero *)
  let t = Trace.create ~workers:4 in
  Alcotest.(check (float 0.0)) "empty trace" 0.0 (Trace.utilization t);
  Trace.add t { Trace.task = 0; name = "x"; worker = 0; start = 0.0; finish = 0.0 };
  Alcotest.(check (float 0.0)) "zero-makespan trace" 0.0 (Trace.utilization t);
  Alcotest.(check bool) "gantt survives too" true
    (String.length (Trace.gantt t) > 0)

let test_trace_by_kernel_rates () =
  let t = Trace.create ~workers:1 in
  Trace.add t { Trace.task = 0; name = "gemm(0)"; worker = 0; start = 0.0; finish = 2.0 };
  Trace.add t { Trace.task = 1; name = "gemm(1)"; worker = 0; start = 2.0; finish = 4.0 };
  let flops_of = function 0 -> 6.0 | 1 -> 2.0 | _ -> 0.0 in
  match Trace.by_kernel_rates t ~flops_of with
  | [ ("gemm", busy, 2, rate) ] ->
    Alcotest.(check (float 0.0)) "busy" 4.0 busy;
    Alcotest.(check (float 1e-12)) "rate = flops / busy" 2.0 rate
  | other -> Alcotest.failf "unexpected rates (%d families)" (List.length other)

(* ---- Telemetry on real runs ---- *)

module Json = Xsc_util.Json

let traced_cholesky ~seed ~executor () =
  let rng = Rng.create seed in
  let a = Mat.random_spd rng 32 in
  let interp = Xsc_core.Cholesky.tile_interp (Tile.of_mat ~nb:8 a) in
  let dag = Xsc_core.Cholesky.dag_ops ~nt:4 ~nb:8 in
  let stats =
    match executor with
    | `Dataflow -> Pool.run_once ~interp ~trace:true ~workers:4 dag
    | `Forkjoin -> Real_exec.run_forkjoin ~interp ~trace:true ~workers:4 dag
  in
  (dag, stats)

let test_traced_run_bitwise_identical () =
  (* tracing must observe, never perturb: the traced factorization is
     bit-for-bit the untraced one *)
  let rng = Rng.create 11 in
  let a = Mat.random_spd rng 32 in
  let t_off = Tile.of_mat ~nb:8 a in
  let t_on = Tile.of_mat ~nb:8 a in
  let dag = Xsc_core.Cholesky.dag_ops ~nt:4 ~nb:8 in
  let run ~trace t = Pool.run_once ~interp:(Xsc_core.Cholesky.tile_interp t) ~trace ~workers:4 dag in
  ignore (run ~trace:false t_off);
  let s = run ~trace:true t_on in
  Alcotest.(check bool) "trace present when asked" true (s.Real_exec.trace <> None);
  Alcotest.(check bool) "factorization bitwise identical" true
    (tiles_bitwise_equal t_off t_on)

let test_untraced_has_no_trace () =
  let rng = Rng.create 13 in
  let a = Mat.random_spd rng 16 in
  let s =
    Pool.run_once
      ~interp:(Xsc_core.Cholesky.tile_interp (Tile.of_mat ~nb:8 a))
      ~workers:2
      (Xsc_core.Cholesky.dag_ops ~nt:2 ~nb:8)
  in
  match Sys.getenv_opt "XSC_TRACE" with
  | None -> Alcotest.(check bool) "no trace by default" true (s.Real_exec.trace = None)
  | Some _ -> ()

let test_real_trace_contents () =
  let dag, stats = traced_cholesky ~seed:12 ~executor:`Dataflow () in
  match stats.Real_exec.trace with
  | None -> Alcotest.fail "expected a trace"
  | Some tr ->
    Alcotest.(check int) "one entry per task" (Dag.n_tasks dag)
      (List.length (Trace.entries tr));
    Alcotest.(check bool) "positive makespan" true (Trace.makespan tr > 0.0);
    let u = Trace.utilization tr in
    Alcotest.(check bool) "utilization in (0,1]" true (u > 0.0 && u <= 1.0)

let test_real_chrome_json_roundtrip () =
  (* the emitted Chrome trace must parse as JSON: an array with one complete
     ("ph":"X") event per task, each with name/ts/dur and a worker tid *)
  let dag, stats = traced_cholesky ~seed:14 ~executor:`Dataflow () in
  let tr = Option.get stats.Real_exec.trace in
  match Json.parse (Trace.to_chrome_json tr) with
  | Json.List events ->
    Alcotest.(check int) "one event per task" (Dag.n_tasks dag) (List.length events);
    List.iter
      (fun ev ->
        let str k =
          match Json.member k ev with
          | Some (Json.Str s) -> s
          | _ -> Alcotest.failf "event missing string %S" k
        in
        let num k =
          match Json.member k ev with
          | Some (Json.Num f) -> f
          | _ -> Alcotest.failf "event missing number %S" k
        in
        Alcotest.(check string) "complete event" "X" (str "ph");
        Alcotest.(check bool) "has a kernel name" true (String.length (str "name") > 0);
        Alcotest.(check bool) "ts >= 0" true (num "ts" >= 0.0);
        Alcotest.(check bool) "dur >= 0" true (num "dur" >= 0.0);
        let tid = int_of_float (num "tid") in
        Alcotest.(check bool) "tid is a worker" true (tid >= 0 && tid < 4))
      events
  | _ -> Alcotest.fail "chrome trace is not a JSON array"

let test_steal_attempts_and_park_time () =
  let counter = Atomic.make 0 in
  let tasks =
    List.init 64 (fun id ->
        Task.make ~id ~name:"inc" ~flops:1.0
          ~run:(fun () -> Atomic.incr counter)
          [ Task.Write id ])
  in
  let s = Pool.run_once ~workers:4 (Dag.build tasks) in
  Alcotest.(check bool) "attempts cover successes" true
    (s.Real_exec.steal_attempts >= s.Real_exec.steals);
  Alcotest.(check bool) "park time non-negative" true (s.Real_exec.park_time >= 0.0);
  Alcotest.(check bool) "park time consistent with parks" true
    (s.Real_exec.parks > 0 || s.Real_exec.park_time = 0.0)

let test_trace_env_toggle () =
  let dag = Dag.build [ task ~run:ignore 0 [ Task.Write 0 ]; task ~run:ignore 1 [ Task.Write 1 ] ] in
  Alcotest.(check (option (array int))) "trace:true stamps every task once" (Some (Array.make 6 (-1)))
    (Real_exec.stamps ~trace:true dag);
  Alcotest.(check bool) "trace:false stamps nothing" true (Real_exec.stamps ~trace:false dag = None);
  (* only the documented truthy values of XSC_TRACE enable tracing *)
  match Sys.getenv_opt "XSC_TRACE" with
  | None -> Alcotest.(check bool) "unset -> off" true (Real_exec.stamps dag = None)
  | Some _ -> ()

let test_traced_and_untraced_jobs_share_pool () =
  (* one persistent pool, an untraced job streaming while a traced job
     runs: the trace holds exactly the traced job's tasks *)
  let pool = Pool.create ~workers:2 () in
  let spins = Atomic.make 0 in
  let busy =
    Dag.build
      (List.init 64 (fun id ->
           Task.make ~id ~name:"busy" ~flops:1.0
             ~run:(fun () ->
               let acc = ref 0 in
               for i = 1 to 20_000 do
                 acc := Sys.opaque_identity (!acc + i)
               done;
               Atomic.incr spins)
             [ Task.Write id ]))
  in
  let busy_done = Atomic.make false in
  Pool.submit pool busy ~on_done:(fun _ ~worker:_ -> Atomic.set busy_done true);
  let a = Mat.random_spd (Rng.create 21) 32 in
  let seq_tiles = Tile.of_mat ~nb:8 a in
  let dag = Xsc_core.Cholesky.dag_ops ~nt:4 ~nb:8 in
  ignore (Real_exec.run_sequential ~interp:(Xsc_core.Cholesky.tile_interp seq_tiles) dag);
  let tiles = Tile.of_mat ~nb:8 a in
  (* an earlier deadline, so the traced job interleaves with the busy one
     instead of queueing behind it *)
  let stats =
    Pool.run ~interp:(Xsc_core.Cholesky.tile_interp tiles) ~trace:true
      ~deadline_ns:(Xsc_obs.Clock.now_ns () + 1_000_000_000) pool dag
  in
  while not (Atomic.get busy_done) do
    Domain.cpu_relax ()
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "untraced job ran" 64 (Atomic.get spins);
  Alcotest.(check bool) "traced job bitwise identical" true (tiles_bitwise_equal seq_tiles tiles);
  match stats.Real_exec.trace with
  | None -> Alcotest.fail "expected a trace"
  | Some tr ->
    let entries = Trace.entries tr in
    Alcotest.(check (list int)) "exactly the traced job's tasks"
      (List.init (Dag.n_tasks dag) Fun.id)
      (List.sort compare (List.map (fun e -> e.Trace.task) entries));
    List.iter
      (fun (e : Trace.entry) ->
        Alcotest.(check string) "task name" dag.Dag.tasks.(e.Trace.task).Task.name e.Trace.name;
        Alcotest.(check bool) "lane in [0, workers)" true (e.Trace.worker >= 0 && e.Trace.worker < 2);
        Alcotest.(check bool) "start <= finish" true (e.Trace.start <= e.Trace.finish))
      entries

let test_forkjoin_trace_and_barrier_wait () =
  let dag, stats = traced_cholesky ~seed:15 ~executor:`Forkjoin () in
  (match stats.Real_exec.trace with
  | None -> Alcotest.fail "expected a trace"
  | Some tr ->
    Alcotest.(check int) "one entry per task" (Dag.n_tasks dag)
      (List.length (Trace.entries tr)));
  Alcotest.(check bool) "barrier wait accounted" true (stats.Real_exec.park_time >= 0.0)

(* ---- Hetero ---- *)

module Hetero = Xsc_runtime.Hetero

let hetero_dag () =
  Xsc_core.Cholesky.dag_ops ~nt:8 ~nb:8

let test_hetero_schedules_valid () =
  let dag = hetero_dag () in
  let cfg = Hetero.config ~rates:(Hetero.two_tier ~fast:2 ~slow:4 ~fast_rate:4e9 ~slow_rate:1e9) () in
  List.iter
    (fun r -> Alcotest.(check bool) "valid order" true (Dag.validate_schedule dag ~order:r.Hetero.order))
    [ Hetero.run_bsp cfg dag; Hetero.run_bsp_oblivious cfg dag; Hetero.run_dataflow cfg dag ]

let test_hetero_dataflow_beats_oblivious () =
  let dag = hetero_dag () in
  let cfg = Hetero.config ~rates:(Hetero.two_tier ~fast:1 ~slow:1 ~fast_rate:10e9 ~slow_rate:1e9) () in
  let naive = Hetero.run_bsp_oblivious cfg dag in
  let dyn = Hetero.run_dataflow cfg dag in
  Alcotest.(check bool) "dataflow faster on skewed rates" true
    (dyn.Hetero.makespan < naive.Hetero.makespan);
  Alcotest.(check bool) "above the throughput bound" true
    (dyn.Hetero.makespan >= Hetero.ideal_time cfg dag)

let test_hetero_uniform_matches_homogeneous_shape () =
  (* with equal rates, the heterogeneous scheduler reduces to ordinary list
     scheduling: makespan within task-overhead noise of Sim_exec *)
  let dag = hetero_dag () in
  let hcfg = Hetero.config ~task_overhead:0.0 ~rates:(Array.make 4 1e9) () in
  let scfg = Sim_exec.config ~task_overhead:0.0 ~workers:4 ~rate:1e9 () in
  let h = Hetero.run_dataflow hcfg dag in
  let s = Sim_exec.run scfg Sim_exec.List_critical_path dag in
  let ratio = h.Hetero.makespan /. s.Sim_exec.makespan in
  Alcotest.(check bool) "within 10%" true (ratio > 0.9 && ratio < 1.1)

let test_hetero_faster_rates_help () =
  let dag = hetero_dag () in
  let slow = Hetero.config ~task_overhead:0.0 ~barrier_cost:0.0 ~rates:(Array.make 4 1e9) () in
  let fast = Hetero.config ~task_overhead:0.0 ~barrier_cost:0.0 ~rates:(Array.make 4 4e9) () in
  Alcotest.(check bool) "4x rates shrink the makespan" true
    ((Hetero.run_dataflow fast dag).Hetero.makespan
    < (Hetero.run_dataflow slow dag).Hetero.makespan /. 2.0)

let test_hetero_validation () =
  Alcotest.check_raises "no workers" (Invalid_argument "Hetero.config: no workers") (fun () ->
      ignore (Hetero.config ~rates:[||] ()));
  Alcotest.check_raises "bad rate" (Invalid_argument "Hetero.config: rates must be positive")
    (fun () -> ignore (Hetero.config ~rates:[| 1e9; 0.0 |] ()))

(* ---- composite priority key ---- *)

module Prio = Xsc_runtime.Prio
module Pqueue = Xsc_runtime.Pqueue
module PD = Xsc_tile.Packed.D

let pk ?(bl = 0) ?(seq = 0) ?(tid = 0) d = Prio.make ~deadline_ns:d ~bl ~seq ~tid

let test_prio_edf_dominates () =
  (* an earlier deadline beats any critical-path depth *)
  Alcotest.(check bool) "earlier deadline wins" true
    (Prio.before (pk ~bl:0 ~seq:99 ~tid:99 10) (pk ~bl:1_000_000 20));
  Alcotest.(check bool) "strict order" false
    (Prio.before (pk ~bl:1_000_000 20) (pk ~bl:0 ~seq:99 ~tid:99 10))

let test_prio_bl_breaks_ties () =
  (* equal deadlines fall to flops-weighted bottom level, deeper first *)
  Alcotest.(check bool) "deeper critical path first" true
    (Prio.before (pk ~bl:900_000 ~seq:7 ~tid:3 10) (pk ~bl:100_000 10));
  Alcotest.(check bool) "shallower loses" false
    (Prio.before (pk ~bl:100_000 10) (pk ~bl:900_000 ~seq:7 ~tid:3 10))

let test_prio_fifo_ties () =
  Alcotest.(check bool) "equal (deadline, bl): job FIFO by seq" true
    (Prio.before (pk ~bl:5 ~seq:1 ~tid:9 10) (pk ~bl:5 ~seq:2 10));
  Alcotest.(check bool) "same job: program order by tid" true
    (Prio.before (pk ~bl:5 ~seq:1 ~tid:0 10) (pk ~bl:5 ~seq:1 ~tid:1 10));
  Alcotest.(check int) "identical keys compare equal" 0
    (Prio.compare (pk ~bl:2 ~seq:3 ~tid:4 1) (pk ~bl:2 ~seq:3 ~tid:4 1))

let test_prio_bl_ranks () =
  (* chain 0 -> 1 -> 2 with flops 10/20/30: bottom levels 60/50/30 over a
     critical path of 60, normalised to the 0..1e6 scale *)
  let t id flops access = Task.make ~id ~name:"t" ~flops ~run:(fun () -> ()) access in
  let d =
    Dag.build
      [
        t 0 10.0 [ Task.Write 0 ];
        t 1 20.0 [ Task.Read 0; Task.Write 1 ];
        t 2 30.0 [ Task.Read 1; Task.Write 2 ];
      ]
  in
  let r = Prio.bl_ranks d in
  Alcotest.(check int) "source carries the critical path" 1_000_000 r.(0);
  Alcotest.(check int) "mid" (int_of_float (1e6 *. 50.0 /. 60.0)) r.(1);
  Alcotest.(check int) "sink" 500_000 r.(2)

(* ---- injection queue ---- *)

let test_pqueue_pop_order () =
  let q = Pqueue.create () in
  List.iteri (fun i k -> Pqueue.push q k i)
    [ pk 30; pk ~bl:1 10; pk ~bl:9 10; pk 20 ];
  Alcotest.(check int) "length" 4 (Pqueue.length q);
  Alcotest.(check int) "cached min deadline" 10 (Pqueue.min_deadline q);
  let handles = List.init 4 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  (* within deadline 10 the deeper bottom level first, then 20, then 30 *)
  Alcotest.(check (list int)) "priority order" [ 2; 1; 3; 0 ] handles;
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q);
  Alcotest.(check int) "empty min deadline" max_int (Pqueue.min_deadline q);
  Alcotest.(check bool) "pop on empty" true (Pqueue.pop q = None)

let test_pqueue_deadline_gate () =
  let q = Pqueue.create () in
  Pqueue.push q (pk 100) 7;
  Alcotest.(check bool) "equal deadline does not preempt" true
    (Pqueue.pop_if_deadline_before q 100 = None);
  Alcotest.(check bool) "strictly later local deadline yields" true
    (match Pqueue.pop_if_deadline_before q 101 with Some (_, 7) -> true | _ -> false);
  Alcotest.(check bool) "empty queue never pops" true
    (Pqueue.pop_if_deadline_before q max_int = None)

(* ---- shared deadline-aware task pool ---- *)

let wait_for ?(timeout_s = 30.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    pred ()
    || (Unix.gettimeofday () -. t0 < timeout_s
       && begin
            Unix.sleepf 0.001;
            go ()
          end)
  in
  go ()

let pbuf_equal (a : PD.t) (b : PD.t) =
  let da = a.PD.buf and db = b.PD.buf in
  let dim = Bigarray.Array1.dim da in
  let rec go i =
    i >= dim
    || (Int64.equal (Int64.bits_of_float da.{i}) (Int64.bits_of_float db.{i}) && go (i + 1))
  in
  Bigarray.Array1.dim db = dim && go 0

(* Six factorizations of three geometries in flight at once on two pool
   workers, every result bitwise-identical to its own sequential run: the
   composite key may interleave them any way it likes, the dependence
   edges still serialise every non-commuting kernel pair. *)
let test_pool_concurrent_jobs_bitwise () =
  let pool = Pool.create ~workers:2 () in
  let jobs =
    List.init 6 (fun i ->
        let nt = 3 + (i mod 3) and nb = 8 in
        let rng = Rng.create (50 + i) in
        let a = Mat.random_spd rng (nt * nb) in
        let dag = Xsc_core.Cholesky.dag_ops ~nt ~nb in
        let reference = PD.of_mat ~nb a in
        ignore
          (Real_exec.run_sequential
             ~interp:(Xsc_core.Cholesky.packed_interp reference)
             dag);
        (dag, reference, PD.of_mat ~nb a))
  in
  let left = Atomic.make (List.length jobs) in
  let failures = Atomic.make 0 in
  List.iteri
    (fun i (dag, _, p) ->
      Pool.submit
        ~interp:(Xsc_core.Cholesky.packed_interp p)
        ~deadline_ns:(1000 + i) pool dag
        ~on_done:(fun f ~worker:_ ->
          (match f with Some _ -> Atomic.incr failures | None -> ());
          Atomic.decr left))
    jobs;
  Alcotest.(check bool) "all jobs completed" true (wait_for (fun () -> Atomic.get left = 0));
  Alcotest.(check int) "no failures" 0 (Atomic.get failures);
  Alcotest.(check int) "no live jobs" 0 (Pool.live_jobs pool);
  List.iteri
    (fun i (_, reference, p) ->
      Alcotest.(check bool) (Printf.sprintf "job %d bitwise" i) true (pbuf_equal reference p))
    jobs;
  Pool.shutdown pool

let test_pool_failure_isolation () =
  let pool = Pool.create ~workers:2 () in
  let boom_after = Atomic.make 0 in
  let boom_dag =
    Dag.build
      [
        Task.make ~id:0 ~name:"ok0" ~flops:1.0 ~run:(fun () -> ()) [ Task.Write 0 ];
        Task.make ~id:1 ~name:"boom" ~flops:1.0
          ~run:(fun () -> failwith "boom")
          [ Task.Read 0; Task.Write 1 ];
        Task.make ~id:2 ~name:"after" ~flops:1.0
          ~run:(fun () -> Atomic.incr boom_after)
          [ Task.Read 1; Task.Write 2 ];
      ]
  in
  let cell = Atomic.make 0 in
  let clean_dag () =
    Dag.build
      [ Task.make ~id:0 ~name:"inc" ~flops:1.0 ~run:(fun () -> Atomic.incr cell) [ Task.Write 0 ] ]
  in
  let fail_name = ref None and fail_seen = Atomic.make false and ok_seen = Atomic.make false in
  Pool.submit pool boom_dag ~on_done:(fun f ~worker:_ ->
      (match f with Some f -> fail_name := Some f.Real_exec.failed_name | None -> ());
      Atomic.set fail_seen true);
  Pool.submit pool (clean_dag ()) ~on_done:(fun f ~worker:_ ->
      if f = None then Atomic.set ok_seen true);
  Alcotest.(check bool) "both callbacks fired exactly once" true
    (wait_for (fun () -> Atomic.get fail_seen && Atomic.get ok_seen));
  Alcotest.(check (option string)) "failure names the task" (Some "boom") !fail_name;
  Alcotest.(check int) "successor of failed task drained, body skipped" 0
    (Atomic.get boom_after);
  Alcotest.(check int) "concurrent clean job untouched" 1 (Atomic.get cell);
  (* the pool survives the failure: blocking runs still work *)
  ignore (Pool.run pool (clean_dag ()));
  Alcotest.(check int) "post-failure run" 2 (Atomic.get cell);
  Pool.shutdown pool

(* A raising completion callback is contained: with one worker, that
   worker must survive it to run the next job. *)
let test_pool_callback_raises () =
  let pool = Pool.create ~workers:1 () in
  let failures = Xsc_obs.Metrics.counter "pool.callback_failures" in
  let before = Xsc_obs.Metrics.counter_value failures in
  let one () =
    Dag.build [ Task.make ~id:0 ~name:"one" ~flops:1.0 ~run:(fun () -> ()) [ Task.Write 0 ] ]
  in
  let fired = Atomic.make false in
  Pool.submit pool (one ()) ~on_done:(fun _ ~worker:_ ->
      Atomic.set fired true;
      failwith "callback boom");
  Alcotest.(check bool) "callback fired" true (wait_for (fun () -> Atomic.get fired));
  ignore (Pool.run pool (one ()));
  Alcotest.(check int) "raise counted" (before + 1) (Xsc_obs.Metrics.counter_value failures);
  Pool.shutdown pool

let test_pool_dynamic_insertion () =
  let pool = Pool.create ~workers:2 () in
  let order = Atomic.make [] in
  let push x =
    let rec go () =
      let l = Atomic.get order in
      if not (Atomic.compare_and_set order l (x :: l)) then go ()
    in
    go ()
  in
  let mk name =
    Dag.build
      [ Task.make ~id:0 ~name ~flops:1.0 ~run:(fun () -> push name) [ Task.Write 0 ] ]
  in
  let finished = Atomic.make false in
  (* a completion callback may submit the follow-up job directly *)
  Pool.submit pool (mk "first") ~on_done:(fun _ ~worker:_ ->
      Pool.submit pool (mk "second") ~on_done:(fun _ ~worker:_ -> Atomic.set finished true));
  Alcotest.(check bool) "chained jobs completed" true
    (wait_for (fun () -> Atomic.get finished));
  Alcotest.(check (list string)) "ran in submission order" [ "second"; "first" ]
    (Atomic.get order);
  Pool.shutdown pool

let test_pool_edf_between_jobs () =
  (* one worker, a deadline-less 20-task job mid-flight: an urgent job
     submitted after it must complete before the slow job drains, because
     every injection-queue pop follows the composite key *)
  let pool = Pool.create ~workers:1 () in
  let slow_done = Atomic.make false and urgent_preempted = Atomic.make false in
  let slow =
    Dag.build
      (List.init 20 (fun id ->
           Task.make ~id ~name:"slow" ~flops:1.0
             ~run:(fun () -> Unix.sleepf 0.002)
             [ Task.Write id ]))
  in
  Pool.submit pool slow ~on_done:(fun _ ~worker:_ -> Atomic.set slow_done true);
  Unix.sleepf 0.004;
  let urgent =
    Dag.build [ Task.make ~id:0 ~name:"urgent" ~flops:1.0 ~run:(fun () -> ()) [ Task.Write 0 ] ]
  in
  Pool.submit ~deadline_ns:1 pool urgent ~on_done:(fun _ ~worker:_ ->
      Atomic.set urgent_preempted (not (Atomic.get slow_done)));
  Alcotest.(check bool) "both jobs completed" true
    (wait_for (fun () -> Atomic.get slow_done));
  Alcotest.(check bool) "urgent job finished before the slow job drained" true
    (Atomic.get urgent_preempted);
  Pool.shutdown pool

let test_pool_run_parents_ambient_spans () =
  (* Pool.run submits under the caller's ambient span context: every task
     body runs under it and records a task span parented onto it *)
  let module Span = Xsc_obs.Span in
  let col = Span.collector () in
  let root = Span.root ~sink:(Some col) ~request:77 in
  let under_root = Atomic.make 0 in
  let dag =
    Dag.build
      (List.init 8 (fun id ->
           Task.make ~id ~name:"t" ~flops:1.0
             ~run:(fun () ->
               match Span.current () with
               | Some c when c == root -> Atomic.incr under_root
               | _ -> ())
             [ Task.Write id ]))
  in
  let pool = Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> Span.with_current (Some root) (fun () -> ignore (Pool.run pool dag)));
  Alcotest.(check int) "bodies run under the ambient context" 8 (Atomic.get under_root);
  let spans = List.filter (fun r -> r.Span.phase = "task") (Span.records col) in
  Alcotest.(check int) "one task span per task" 8 (List.length spans);
  List.iter
    (fun r ->
      Alcotest.(check int) "request" 77 r.Span.request;
      Alcotest.(check int) "parented on the caller's span" root.Span.span r.Span.parent)
    spans

let test_pool_run_and_lifecycle () =
  let pool = Pool.create ~workers:1 () in
  let hits = Atomic.make 0 in
  let dag () =
    Dag.build
      (List.init 16 (fun id ->
           Task.make ~id ~name:"inc" ~flops:1.0
             ~run:(fun () -> Atomic.incr hits)
             [ Task.Write id ]))
  in
  ignore (Pool.run pool (dag ()));
  Alcotest.(check int) "blocking run executed every task" 16 (Atomic.get hits);
  let boom =
    Dag.build
      [ Task.make ~id:0 ~name:"boom" ~flops:1.0 ~run:(fun () -> failwith "x") [ Task.Write 0 ] ]
  in
  (match Pool.run pool boom with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Real_exec.Task_failed f ->
    Alcotest.(check string) "failure names the task" "boom" f.Real_exec.failed_name);
  let inline_worker = ref 99 in
  Pool.submit pool (Dag.build []) ~on_done:(fun _ ~worker -> inline_worker := worker);
  Alcotest.(check int) "empty dag completes inline" (-1) !inline_worker;
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.(check bool) "submit after shutdown refused" true
    (match Pool.submit pool (dag ()) ~on_done:(fun _ ~worker:_ -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "xsc_runtime"
    [
      ( "task",
        [
          Alcotest.test_case "reads/writes" `Quick test_task_reads_writes;
          Alcotest.test_case "datum" `Quick test_task_datum;
          Alcotest.test_case "negative flops" `Quick test_task_negative_flops;
        ] );
      ( "dag",
        [
          Alcotest.test_case "RAW" `Quick test_dag_raw;
          Alcotest.test_case "WAR" `Quick test_dag_war;
          Alcotest.test_case "WAW" `Quick test_dag_waw;
          Alcotest.test_case "independent readers" `Quick test_dag_independent_readers;
          Alcotest.test_case "independent data" `Quick test_dag_independent_data;
          Alcotest.test_case "RW chain" `Quick test_dag_rw_chain;
          Alcotest.test_case "diamond" `Quick test_dag_diamond;
          Alcotest.test_case "numbering check" `Quick test_dag_numbering_check;
          Alcotest.test_case "flops/critical path" `Quick test_dag_flops;
          Alcotest.test_case "validate_schedule" `Quick test_validate_schedule;
        ] );
      ( "sim_exec",
        [
          qcheck prop_policies_produce_valid_schedules;
          qcheck prop_makespan_bounds;
          Alcotest.test_case "single worker" `Quick test_single_worker_serialises;
          Alcotest.test_case "dag beats bsp" `Quick test_dag_beats_bsp_on_cholesky_shape;
          Alcotest.test_case "comm cost" `Quick test_comm_cost_slows_things;
          Alcotest.test_case "work stealing deterministic" `Quick
            test_work_stealing_deterministic_per_seed;
        ] );
      ( "deque",
        [
          Alcotest.test_case "owner LIFO" `Quick test_deque_owner_lifo;
          Alcotest.test_case "steal FIFO" `Quick test_deque_steal_fifo;
          Alcotest.test_case "mixed ends" `Quick test_deque_mixed_ends;
          qcheck prop_deque_concurrent_thieves;
        ] );
      ( "real_exec",
        [
          Alcotest.test_case "sequential" `Quick test_real_sequential;
          Alcotest.test_case "dataflow = sequential" `Quick
            test_real_dataflow_matches_sequential;
          Alcotest.test_case "forkjoin = sequential" `Quick
            test_real_forkjoin_matches_sequential;
          Alcotest.test_case "parallel independent" `Quick
            test_real_dataflow_parallel_independent;
          Alcotest.test_case "missing closure" `Quick test_real_missing_closure;
          Alcotest.test_case "op dispatch all executors" `Quick
            test_op_dispatch_all_executors;
          Alcotest.test_case "op without interp rejected" `Quick
            test_op_without_interp_rejected;
          Alcotest.test_case "op names" `Quick test_op_name;
          Alcotest.test_case "empty dag" `Quick test_real_empty_dag;
          Alcotest.test_case "default workers" `Quick test_default_workers;
          Alcotest.test_case "task failure: sequential" `Quick test_task_failed_sequential;
          Alcotest.test_case "task failure: dataflow (parked workers)" `Quick
            test_task_failed_dataflow;
          Alcotest.test_case "task failure: forkjoin" `Quick test_task_failed_forkjoin;
          Alcotest.test_case "task failure: dataflow in flight" `Quick
            test_task_failed_wide_dataflow;
          Alcotest.test_case "executor reusable after failure" `Quick
            test_executor_reusable_after_failure;
          Alcotest.test_case "task failures counted" `Quick test_task_failures_counted;
          qcheck prop_dataflow_bitwise_oracle;
          Alcotest.test_case "oracle: tiled cholesky" `Quick test_oracle_cholesky;
          Alcotest.test_case "oracle: tiled LU" `Quick test_oracle_lu;
          Alcotest.test_case "scheduler stats" `Quick test_dataflow_stats_reported;
        ] );
      ( "trace",
        [
          Alcotest.test_case "metrics" `Quick test_trace_metrics;
          Alcotest.test_case "gantt" `Quick test_trace_gantt;
          Alcotest.test_case "validation" `Quick test_trace_validation;
          Alcotest.test_case "chrome json" `Quick test_trace_chrome_json;
          Alcotest.test_case "by_kernel profile" `Quick test_trace_by_kernel;
          Alcotest.test_case "utilization zero makespan" `Quick
            test_trace_utilization_zero_makespan;
          Alcotest.test_case "by_kernel rates" `Quick test_trace_by_kernel_rates;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "traced run bitwise identical" `Quick
            test_traced_run_bitwise_identical;
          Alcotest.test_case "untraced has no trace" `Quick test_untraced_has_no_trace;
          Alcotest.test_case "real trace contents" `Quick test_real_trace_contents;
          Alcotest.test_case "chrome json round-trip" `Quick
            test_real_chrome_json_roundtrip;
          Alcotest.test_case "steal attempts and park time" `Quick
            test_steal_attempts_and_park_time;
          Alcotest.test_case "env toggle" `Quick test_trace_env_toggle;
          Alcotest.test_case "traced and untraced jobs share a pool" `Quick
            test_traced_and_untraced_jobs_share_pool;
          Alcotest.test_case "forkjoin trace and barrier wait" `Quick
            test_forkjoin_trace_and_barrier_wait;
        ] );
      ( "prio",
        [
          Alcotest.test_case "EDF dominates critical path" `Quick test_prio_edf_dominates;
          Alcotest.test_case "bottom level breaks deadline ties" `Quick
            test_prio_bl_breaks_ties;
          Alcotest.test_case "FIFO tie-breaks" `Quick test_prio_fifo_ties;
          Alcotest.test_case "bl ranks normalised" `Quick test_prio_bl_ranks;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "pop order" `Quick test_pqueue_pop_order;
          Alcotest.test_case "deadline gate" `Quick test_pqueue_deadline_gate;
        ] );
      ( "pool",
        [
          Alcotest.test_case "concurrent jobs bitwise" `Quick
            test_pool_concurrent_jobs_bitwise;
          Alcotest.test_case "per-job failure isolation" `Quick test_pool_failure_isolation;
          Alcotest.test_case "raising callback contained" `Quick test_pool_callback_raises;
          Alcotest.test_case "dynamic insertion from on_done" `Quick
            test_pool_dynamic_insertion;
          Alcotest.test_case "EDF between jobs" `Quick test_pool_edf_between_jobs;
          Alcotest.test_case "run parents task spans on the ambient context" `Quick
            test_pool_run_parents_ambient_spans;
          Alcotest.test_case "blocking run and lifecycle" `Quick
            test_pool_run_and_lifecycle;
        ] );
      ( "hetero",
        [
          Alcotest.test_case "valid schedules" `Quick test_hetero_schedules_valid;
          Alcotest.test_case "dataflow beats oblivious BSP" `Quick
            test_hetero_dataflow_beats_oblivious;
          Alcotest.test_case "uniform ~ homogeneous" `Quick
            test_hetero_uniform_matches_homogeneous_shape;
          Alcotest.test_case "faster rates help" `Quick test_hetero_faster_rates_help;
          Alcotest.test_case "validation" `Quick test_hetero_validation;
        ] );
    ]
