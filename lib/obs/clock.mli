(** Monotonic time source for all runtime telemetry.

    Wall-clock time ([Unix.gettimeofday]) is not monotonic — NTP steps and
    manual clock changes can make elapsed-time differences negative or
    wildly wrong mid-run — so every trace stamp and executor timing
    goes through [CLOCK_MONOTONIC] instead (C stub; QueryPerformanceCounter
    on Windows, [gettimeofday] only as a last-resort fallback). *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed origin. Allocation-free; safe to
    call from any domain at event-recording frequency. *)

val now_s : unit -> float
(** [now_ns] in seconds. *)

val ns_to_s : int -> float
(** Convert a nanosecond count (or difference) to seconds. *)
