(* The benchmark's vocabulary: every metric it can emit, with unit and
   direction. BENCHMARK.json at the repository root declares the same
   names (plus the gated bounds); the tier-1 test checks that the two
   agree, so a metric cannot be declared and silently never emitted. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

(* Gated end-to-end metrics: every workload emits every one of them from
   its untraced run. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "p50_ms" "ms" Lower;
    m "p90_ms" "ms" Lower;
    m "throughput_rps" "1/s" Higher;
    m "cpu_ms_per_req" "ms" Lower;
    m "peak_rss_mb" "MB" Lower;
  ]

(* Absolute floor, in the metric's unit, under which a change of a gated
   metric's median never counts as a regression: the tolerance is the
   larger of the floor and the bound's share of the median. A set-up
   takes 15-22 ms, and its spread between runs of the same code reached
   28%, past the largest allowed share. BENCHMARK.json has no key for
   it. *)
let floor = function "setup_s" -> 0.020 | _ -> 0.0

let kernel_families = [ "potrf"; "trsm"; "syrk"; "gemm"; "getrf"; "trsm_l"; "trsm_u" ]

(* Per-layer metrics, named by module, from the traced run. A layer that a
   workload never enters reports 0 (for example [kernel.getrf.*] on an
   SPD-only workload). *)
let per_layer =
  [
    m "loadgen.late_p99_ms" "ms" Lower;
    m "server.submit_us.p50" "us" Lower;
    m "server.submit_us.p99" "us" Lower;
    m "server.queue_wait_ms.p50" "ms" Lower;
    m "server.queue_wait_ms.p99" "ms" Lower;
    m "server.service_ms.p50" "ms" Lower;
    m "server.service_ms.p99" "ms" Lower;
    m "server.notify_us.p50" "us" Lower;
    m "server.batch_size.mean" "count" Higher;
    m "server.retried" "count" Lower;
    m "server.miss_frac" "frac" Lower;
    m "route.plan_us.p50" "us" Lower;
    m "route.pack_us.p50" "us" Lower;
    m "route.finish_us.p50" "us" Lower;
    m "pool.queue_us.p50" "us" Lower;
    m "pool.queue_us.p99" "us" Lower;
    m "pool.makespan_ms.p50" "ms" Lower;
    m "pool.busy_frac" "frac" Higher;
  ]
  @ List.concat_map
      (fun f ->
        [
          m (Printf.sprintf "kernel.%s.calls" f) "count" Lower;
          m (Printf.sprintf "kernel.%s.busy_ms" f) "ms" Lower;
          m (Printf.sprintf "kernel.%s.gflops" f) "GF/s" Higher;
        ])
      kernel_families
  @ [
      m "sparse.p50_ms" "ms" Lower;
      m "sparse.p90_ms" "ms" Lower;
      m "sparse.solve_ms.p50" "ms" Lower;
      m "sparse.chunk_ms.max" "ms" Lower;
      m "sparse.gbps_computed" "GB/s" Higher;
      m "scratch.hit_frac" "frac" Higher;
      m "gc.minor_words_per_req" "words" Lower;
      m "gc.major_per_kreq" "count" Lower;
      m "obs.span_records_per_req" "count" Lower;
      m "obs.span_overhead_frac" "frac" Lower;
      m "obs.trace_entries_retained" "count" Lower;
      m "ledger.late_frac" "frac" Lower;
      m "ledger.wait_frac" "frac" Lower;
      m "ledger.dispatch_frac" "frac" Lower;
      m "ledger.pool_queue_frac" "frac" Lower;
      m "ledger.pack_frac" "frac" Lower;
      m "ledger.kernel_frac" "frac" Lower;
      m "ledger.retry_frac" "frac" Lower;
      m "ledger.finish_frac" "frac" Lower;
      m "ledger.unattributed_frac" "frac" Lower;
    ]

let find name = List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)

let better_name = function Lower -> "lower" | Higher -> "higher"
