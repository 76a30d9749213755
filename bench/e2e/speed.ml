(* Host-speed calibration.

   On a shared 2-core box the host's speed drifts by 10-25% over
   minutes as neighbours load it; the drift slows CPU time as much as
   wall time, so no clock inside the guest can hide it. The benchmark
   therefore times a fixed kernel in the parent process right before
   and right after every rep, and rescales the rep's host times by
   [reference_s / kernel time], the mean of the two readings. Reported
   host times are "reference seconds": wall seconds on a host where the
   kernel takes [reference_s], about its quiet-time reading on the box
   where the benchmark was written (README.md).

   The kernel uses only the standard library, so no change to the
   program under test can speed it up. It mixes what the simulator
   does: hashing into a table of a quarter million entries (~10 MB,
   past the caches), pointer chasing, and short-lived allocation. *)

open Horse_engine

let reference_s = 0.3

let kernel () =
  let n = 1 lsl 18 in
  let h = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace h ((i * 2654435761) land 0xFFFFFF) i
  done;
  let acc = ref 0 in
  for round = 1 to 12 do
    for i = 0 to n - 1 do
      match Hashtbl.find_opt h (((i * 2654435761) + round) land 0xFFFFFF) with
      | Some v -> acc := !acc + v
      | None -> incr acc
    done;
    let l = List.init 50_000 (fun i -> (i, float_of_int i)) in
    acc :=
      !acc + List.fold_left (fun a (i, f) -> a + i + int_of_float (sqrt f)) 0 l
  done;
  !acc

let measure () =
  let t0 = Wall.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Wall.now () -. t0

(* The factor that turns wall seconds measured between two kernel
   readings into reference seconds. *)
let factor ~before ~after = reference_s /. ((before +. after) /. 2.0)
