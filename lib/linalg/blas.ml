type trans = NoTrans | Trans
type side = Left | Right
type uplo = Upper | Lower
type diag = Unit | NonUnit

let op_dims trans (m : Mat.t) =
  match trans with NoTrans -> (m.rows, m.cols) | Trans -> (m.cols, m.rows)

(* FLOP/byte accounting: every level-2/3 call tallies its arithmetic and
   (modelled) memory traffic into the process-wide registry, so achieved
   GFLOP/s and arithmetic intensity of a real run can be read back without
   re-deriving them from the algorithm. The cost is three sharded atomic
   adds per kernel call — O(1) against the O(n^3) (or O(n^2)) work of the
   call itself. Counter names: blas.<kernel>.{calls,flops,bytes}.

   Tallies are created on first use, not at module init: a kernel that is
   never called leaves no zero-valued counters in the registry export. The
   cell is an atomic, not a lazy: kernels run on several domains, and a
   lazy forced by two at once raises in one of them. Two domains that both
   miss create the same counters, which the registry deduplicates by name. *)
module Metrics = Xsc_obs.Metrics

type tally = { calls : Metrics.counter; flops : Metrics.counter; bytes : Metrics.counter }

let make_tally kernel =
  {
    calls = Metrics.counter (Printf.sprintf "blas.%s.calls" kernel);
    flops = Metrics.counter (Printf.sprintf "blas.%s.flops" kernel);
    bytes = Metrics.counter (Printf.sprintf "blas.%s.bytes" kernel);
  }

let tally_cell kernel = (kernel, Atomic.make None)
let t_gemm = tally_cell "gemm"
let t_syrk = tally_cell "syrk"
let t_trsm = tally_cell "trsm"
let t_gemv = tally_cell "gemv"

let[@inline] tally (kernel, cell) ~flops ~bytes =
  let t =
    match Atomic.get cell with
    | Some t -> t
    | None ->
      let t = make_tally kernel in
      Atomic.set cell (Some t);
      t
  in
  Metrics.incr t.calls;
  Metrics.add t.flops (int_of_float flops);
  Metrics.add t.bytes (int_of_float bytes)

(* Find-or-create tally for out-of-module kernels (the packed-tile kernels
   in Pblas route their accounting through here so roofline reports see one
   unified blas.* namespace). Guarded by a lock only on the miss path. *)
let tally_tbl : (string, tally) Hashtbl.t = Hashtbl.create 16
let tally_mu = Mutex.create ()

let tally_kernel kernel ~flops ~bytes =
  let t =
    match Hashtbl.find_opt tally_tbl kernel with
    | Some t -> t
    | None ->
      Mutex.lock tally_mu;
      let t =
        match Hashtbl.find_opt tally_tbl kernel with
        | Some t -> t
        | None ->
          let t = make_tally kernel in
          Hashtbl.add tally_tbl kernel t;
          t
      in
      Mutex.unlock tally_mu;
      t
  in
  Metrics.incr t.calls;
  Metrics.add t.flops (int_of_float flops);
  Metrics.add t.bytes (int_of_float bytes)

(* operands read once, C read and written: the cold-cache traffic bound *)
let gemm_traffic m n k = 8.0 *. float_of_int ((m * k) + (k * n) + (2 * m * n))

(* C <- alpha op(A) op(B) + beta C, reference loop nests.

   Each transpose combination gets its own loop nest so the inner loop walks
   contiguous row-major storage wherever possible (the i-k-j order streams
   both B and C rows for the NoTrans/NoTrans case). [gemm] proper routes
   large NoTrans cases to the packed {!Kernel} instead; this unblocked
   version stays the oracle the blocked path is tested against. *)
let gemm_unblocked_raw ~transa ~transb ~alpha (a : Mat.t) (b : Mat.t) ~beta (c : Mat.t) =
  let ma, ka = op_dims transa a in
  let kb, nb = op_dims transb b in
  if ka <> kb then invalid_arg "Blas.gemm: inner dimension mismatch";
  if c.rows <> ma || c.cols <> nb then invalid_arg "Blas.gemm: output dimension mismatch";
  let m = ma and n = nb and k = ka in
  let ad = a.data and bd = b.data and cd = c.data in
  if beta <> 1.0 then
    for i = 0 to (m * n) - 1 do
      cd.(i) <- beta *. cd.(i)
    done;
  if alpha <> 0.0 then
    match (transa, transb) with
    | NoTrans, NoTrans ->
      (* Dot-product form (accumulate over k, then one update of C): the
         same per-element operation order as the NoTrans/Trans branch, the
         blocked {!Kernel.micro} and the packed {!Pblas} kernels, so every
         NN gemm path in the library rounds identically. *)
      for i = 0 to m - 1 do
        let arow = i * a.cols and crow = i * n in
        for j = 0 to n - 1 do
          let acc = ref 0.0 in
          for l = 0 to k - 1 do
            acc := !acc +. (ad.(arow + l) *. bd.((l * b.cols) + j))
          done;
          cd.(crow + j) <- cd.(crow + j) +. (alpha *. !acc)
        done
      done
    | NoTrans, Trans ->
      for i = 0 to m - 1 do
        let arow = i * a.cols and crow = i * n in
        for j = 0 to n - 1 do
          let brow = j * b.cols in
          let acc = ref 0.0 in
          for l = 0 to k - 1 do
            acc := !acc +. (ad.(arow + l) *. bd.(brow + l))
          done;
          cd.(crow + j) <- cd.(crow + j) +. (alpha *. !acc)
        done
      done
    | Trans, NoTrans ->
      for l = 0 to k - 1 do
        let arow = l * a.cols and brow = l * b.cols in
        for i = 0 to m - 1 do
          let aik = alpha *. ad.(arow + i) in
          if aik <> 0.0 then begin
            let crow = i * n in
            for j = 0 to n - 1 do
              cd.(crow + j) <- cd.(crow + j) +. (aik *. bd.(brow + j))
            done
          end
        done
      done
    | Trans, Trans ->
      for i = 0 to m - 1 do
        let crow = i * n in
        for j = 0 to n - 1 do
          let brow = j * b.cols in
          let acc = ref 0.0 in
          for l = 0 to k - 1 do
            acc := !acc +. (ad.((l * a.cols) + i) *. bd.(brow + l))
          done;
          cd.(crow + j) <- cd.(crow + j) +. (alpha *. !acc)
        done
      done

let gemm_unblocked ?(transa = NoTrans) ?(transb = NoTrans) ~alpha (a : Mat.t) (b : Mat.t)
    ~beta (c : Mat.t) =
  gemm_unblocked_raw ~transa ~transb ~alpha a b ~beta c;
  let m, k = op_dims transa a and _, n = op_dims transb b in
  tally t_gemm
    ~flops:(2.0 *. float_of_int m *. float_of_int n *. float_of_int k)
    ~bytes:(gemm_traffic m n k)

let gemm ?(transa = NoTrans) ?(transb = NoTrans) ~alpha (a : Mat.t) (b : Mat.t) ~beta
    (c : Mat.t) =
  let ma, ka = op_dims transa a in
  let kb, nb = op_dims transb b in
  if ka <> kb then invalid_arg "Blas.gemm: inner dimension mismatch";
  if c.rows <> ma || c.cols <> nb then invalid_arg "Blas.gemm: output dimension mismatch";
  let m = ma and n = nb and k = ka in
  (* Blocked path for the shapes the tile kernels hit: packing pays for
     itself once every dimension clears the cutoff. *)
  let blocked = m >= Kernel.cutoff && n >= Kernel.cutoff && k >= Kernel.cutoff in
  (match (transa, transb) with
  | NoTrans, NoTrans when blocked ->
    if beta <> 1.0 then
      for i = 0 to (m * n) - 1 do
        c.data.(i) <- beta *. c.data.(i)
      done;
    Kernel.add_matmul ~trans_b:false ~alpha a b c
  | NoTrans, Trans when blocked ->
    if beta <> 1.0 then
      for i = 0 to (m * n) - 1 do
        c.data.(i) <- beta *. c.data.(i)
      done;
    Kernel.add_matmul ~trans_b:true ~alpha a b c
  | _ -> gemm_unblocked_raw ~transa ~transb ~alpha a b ~beta c);
  tally t_gemm
    ~flops:(2.0 *. float_of_int m *. float_of_int n *. float_of_int k)
    ~bytes:(gemm_traffic m n k)

let gemm_new ?(transa = NoTrans) ?(transb = NoTrans) a b =
  let m, _ = op_dims transa a and _, n = op_dims transb b in
  let c = Mat.create m n in
  gemm ~transa ~transb ~alpha:1.0 a b ~beta:0.0 c;
  c

let gemv ?(trans = NoTrans) ~alpha (a : Mat.t) x ~beta y =
  let m, n = op_dims trans a in
  if Array.length x <> n then invalid_arg "Blas.gemv: x dimension mismatch";
  if Array.length y <> m then invalid_arg "Blas.gemv: y dimension mismatch";
  if beta <> 1.0 then
    for i = 0 to m - 1 do
      y.(i) <- beta *. y.(i)
    done;
  let ad = a.data in
  (match trans with
  | NoTrans ->
    for i = 0 to m - 1 do
      let base = i * a.cols in
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (ad.(base + j) *. x.(j))
      done;
      y.(i) <- y.(i) +. (alpha *. !acc)
    done
  | Trans ->
    for j = 0 to a.rows - 1 do
      let base = j * a.cols in
      let xv = alpha *. x.(j) in
      if xv <> 0.0 then
        for i = 0 to m - 1 do
          y.(i) <- y.(i) +. (xv *. ad.(base + i))
        done
    done);
  tally t_gemv
    ~flops:(2.0 *. float_of_int m *. float_of_int n)
    ~bytes:(8.0 *. float_of_int ((m * n) + n + (2 * m)))

let syrk ?(uplo = Lower) ?(trans = NoTrans) ~alpha (a : Mat.t) ~beta (c : Mat.t) =
  let n, k = op_dims trans a in
  if c.rows <> n || c.cols <> n then invalid_arg "Blas.syrk: output dimension mismatch";
  let ad = a.data and cd = c.data in
  let lda = a.cols and ldc = c.cols in
  for i = 0 to n - 1 do
    let jlo, jhi = match uplo with Lower -> (0, i) | Upper -> (i, n - 1) in
    let crow = i * ldc in
    match trans with
    | NoTrans ->
      let arow_i = i * lda in
      for j = jlo to jhi do
        let arow_j = j * lda in
        let acc = ref 0.0 in
        for l = 0 to k - 1 do
          acc := !acc +. (ad.(arow_i + l) *. ad.(arow_j + l))
        done;
        cd.(crow + j) <- (alpha *. !acc) +. (beta *. cd.(crow + j))
      done
    | Trans ->
      for j = jlo to jhi do
        let acc = ref 0.0 in
        for l = 0 to k - 1 do
          let arow_l = l * lda in
          acc := !acc +. (ad.(arow_l + i) *. ad.(arow_l + j))
        done;
        cd.(crow + j) <- (alpha *. !acc) +. (beta *. cd.(crow + j))
      done
  done;
  (* n(n+1)/2 triangle entries, 2k flops each; A streamed once, the
     triangle of C read and written *)
  tally t_syrk
    ~flops:(float_of_int n *. float_of_int (n + 1) *. float_of_int k)
    ~bytes:(8.0 *. float_of_int ((n * k) + (n * (n + 1))))

let diag_value diag a i = match diag with Unit -> 1.0 | NonUnit -> Mat.get a i i

(* B <- alpha op(A)^-1 B (Left) or alpha B op(A)^-1 (Right). The four
   triangular orientations reduce to forward or backward substitution over
   rows (Left) or columns (Right) of B. *)
let trsm ?(side = Left) ?(uplo = Lower) ?(trans = NoTrans) ?(diag = NonUnit) ~alpha
    (a : Mat.t) (b : Mat.t) =
  if a.rows <> a.cols then invalid_arg "Blas.trsm: A not square";
  let n = a.rows in
  (match side with
  | Left -> if b.rows <> n then invalid_arg "Blas.trsm: dimension mismatch"
  | Right -> if b.cols <> n then invalid_arg "Blas.trsm: dimension mismatch");
  if alpha <> 1.0 then
    for i = 0 to Array.length b.data - 1 do
      b.data.(i) <- alpha *. b.data.(i)
    done;
  (* Effective orientation: a transposed triangle flips Lower <-> Upper with
     element access swapped. All four substitution loops run on raw offsets
     into the data arrays — trsm is on the tile hot path (both Cholesky and
     LU panels), and the inner loops sweep whole rows of B. *)
  let ad = a.data and bd = b.data in
  let lda = a.cols and ldb = b.cols in
  let aget i j = match trans with NoTrans -> ad.((i * lda) + j) | Trans -> ad.((j * lda) + i) in
  let eff_uplo =
    match (uplo, trans) with
    | Lower, NoTrans | Upper, Trans -> Lower
    | Upper, NoTrans | Lower, Trans -> Upper
  in
  (match (side, eff_uplo) with
  | Left, Lower ->
    (* forward substitution on block rows of B *)
    for i = 0 to n - 1 do
      let brow_i = i * ldb in
      for l = 0 to i - 1 do
        let ail = aget i l in
        if ail <> 0.0 then begin
          let brow_l = l * ldb in
          for j = 0 to ldb - 1 do
            bd.(brow_i + j) <- bd.(brow_i + j) -. (ail *. bd.(brow_l + j))
          done
        end
      done;
      let d = diag_value diag a i in
      if d <> 1.0 then
        for j = 0 to ldb - 1 do
          bd.(brow_i + j) <- bd.(brow_i + j) /. d
        done
    done
  | Left, Upper ->
    for i = n - 1 downto 0 do
      let brow_i = i * ldb in
      for l = i + 1 to n - 1 do
        let ail = aget i l in
        if ail <> 0.0 then begin
          let brow_l = l * ldb in
          for j = 0 to ldb - 1 do
            bd.(brow_i + j) <- bd.(brow_i + j) -. (ail *. bd.(brow_l + j))
          done
        end
      done;
      let d = diag_value diag a i in
      if d <> 1.0 then
        for j = 0 to ldb - 1 do
          bd.(brow_i + j) <- bd.(brow_i + j) /. d
        done
    done
  | Right, Lower ->
    (* X A = B with A lower: solve columns right-to-left. *)
    for j = n - 1 downto 0 do
      for l = j + 1 to n - 1 do
        let alj = aget l j in
        if alj <> 0.0 then
          for i = 0 to b.rows - 1 do
            let brow = i * ldb in
            bd.(brow + j) <- bd.(brow + j) -. (bd.(brow + l) *. alj)
          done
      done;
      let d = diag_value diag a j in
      if d <> 1.0 then
        for i = 0 to b.rows - 1 do
          bd.((i * ldb) + j) <- bd.((i * ldb) + j) /. d
        done
    done
  | Right, Upper ->
    for j = 0 to n - 1 do
      for l = 0 to j - 1 do
        let alj = aget l j in
        if alj <> 0.0 then
          for i = 0 to b.rows - 1 do
            let brow = i * ldb in
            bd.(brow + j) <- bd.(brow + j) -. (bd.(brow + l) *. alj)
          done
      done;
      let d = diag_value diag a j in
      if d <> 1.0 then
        for i = 0 to b.rows - 1 do
          bd.((i * ldb) + j) <- bd.((i * ldb) + j) /. d
        done
    done);
  (* one triangular solve of size n per right-hand side *)
  let nrhs = match side with Left -> b.cols | Right -> b.rows in
  tally t_trsm
    ~flops:(float_of_int n *. float_of_int n *. float_of_int nrhs)
    ~bytes:(8.0 *. float_of_int ((n * (n + 1) / 2) + (2 * b.rows * b.cols)))

let trsv ?(uplo = Lower) ?(trans = NoTrans) ?(diag = NonUnit) (a : Mat.t) x =
  if a.rows <> a.cols then invalid_arg "Blas.trsv: A not square";
  if Array.length x <> a.rows then invalid_arg "Blas.trsv: dimension mismatch";
  let n = a.rows in
  let aget i j = match trans with NoTrans -> Mat.get a i j | Trans -> Mat.get a j i in
  let eff_uplo =
    match (uplo, trans) with
    | Lower, NoTrans | Upper, Trans -> Lower
    | Upper, NoTrans | Lower, Trans -> Upper
  in
  match eff_uplo with
  | Lower ->
    for i = 0 to n - 1 do
      let acc = ref x.(i) in
      for l = 0 to i - 1 do
        acc := !acc -. (aget i l *. x.(l))
      done;
      x.(i) <- (match diag with Unit -> !acc | NonUnit -> !acc /. Mat.get a i i)
    done
  | Upper ->
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for l = i + 1 to n - 1 do
        acc := !acc -. (aget i l *. x.(l))
      done;
      x.(i) <- (match diag with Unit -> !acc | NonUnit -> !acc /. Mat.get a i i)
    done

let gemm_flops m n k = 2.0 *. float_of_int m *. float_of_int n *. float_of_int k
