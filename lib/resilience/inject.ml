open Xsc_linalg

(* every injected fault is tallied so experiments can cross-check the
   detection rate: resilience.faults_detected / resilience.faults_injected *)
let faults_injected = Xsc_obs.Metrics.counter "resilience.faults_injected"

let corrupt_entry m i j ~delta =
  Xsc_obs.Metrics.incr faults_injected;
  Mat.set m i j (Mat.get m i j +. delta)

let corrupt_lower_entry rng (m : Mat.t) ~magnitude =
  if m.rows < 2 then invalid_arg "Inject.corrupt_lower_entry: matrix too small";
  let i = 1 + Xsc_util.Rng.int rng (m.rows - 1) in
  let j = Xsc_util.Rng.int rng i in
  let sign = if Xsc_util.Rng.uniform rng < 0.5 then -1.0 else 1.0 in
  corrupt_entry m i j ~delta:(sign *. magnitude);
  (i, j)

(* ---- Packed tile-major storage (the real kernel path) ---- *)

module PD = Xsc_tile.Packed.D

let corrupt_packed_entry (p : PD.t) i j ~delta =
  Xsc_obs.Metrics.incr faults_injected;
  PD.set p i j (PD.get p i j +. delta)
