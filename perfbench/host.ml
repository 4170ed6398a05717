(* Host-side probes: the cost of the OCaml process running the
   simulation, never the simulation itself.  Virtual time comes only from
   the engine. *)

(* Monotonic nanoseconds since an arbitrary origin: fine-grained, for
   spans of single calls. *)
let now_ns () =
  (* rt_lint: allow no-wall-clock -- host-side benchmark timing *)
  Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Process CPU seconds (user + system, microsecond resolution).  The
   benchmark is one thread, so this is its host cost without the time
   other processes held the CPU. *)
let cpu_s () =
  (* rt_lint: allow no-wall-clock -- host-side benchmark timing *)
  Sys.time ()

module Int_map = Map.Make (Int)

(* A fixed computation that runs no code of this repository, only the
   standard library: sort 4,000 pseudo-random ints, build and probe a
   3,000-entry map, format 1,000 short strings into a hash table.  Its
   CPU time says how fast the machine runs at the moment; a change to
   this repository cannot make it faster or slower.  The mix tracks the
   simulator's and the explorer's slowdowns better than any one part of
   it alone. *)
let reference_work () =
  let x = ref 1 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
    !x
  in
  let a = Array.init 4_000 (fun _ -> next ()) in
  Array.sort Int.compare a;
  let m = ref Int_map.empty in
  for _ = 1 to 3_000 do
    let k = next () in
    m := Int_map.add (k land 0xFFFF) k !m
  done;
  let hits = ref 0 in
  for k = 0 to 3_000 do
    if Int_map.mem k !m then incr hits
  done;
  let h = Hashtbl.create 64 in
  let b = Buffer.create 64 in
  for i = 0 to 999 do
    Buffer.clear b;
    Printf.bprintf b "site=%d txn=%s v=%d;" (i land 7)
      (string_of_int (i * 31)) (i * 7);
    Hashtbl.replace h (Buffer.contents b) i
  done;
  ignore (Sys.opaque_identity (a.(0) + !hits + Hashtbl.length h))

(* Every reference sample of the run, in CPU seconds. *)
let reference_samples = ref []

let reference_s () =
  let c0 = cpu_s () in
  reference_work ();
  let s = cpu_s () -. c0 in
  reference_samples := s :: !reference_samples;
  s

(* About what [reference_s] reads on a quiet machine of the kind the
   bounds were measured on: the speed scaled host timings are quoted at. *)
let reference_nominal_s = 0.003

(* On a shared machine the same work runs at speeds up to 1.5x apart,
   switching every few seconds with the neighbours' load.  A meter times
   a piece of work in laps of a few tens of milliseconds and samples the
   reference between laps; each lap's CPU time is scaled by the nominal
   reference over the mean of the two samples around it.  The reference
   is slowed with the work, so the scaled sum moves far less than the
   raw one.  Reference time and allocation are left out of every total. *)
type meter = {
  mutable last_ref : float;
  mutable c0 : float;
  mutable t0 : int;
  mutable w0 : float;
  mutable wall : float;
  mutable words : float;  (* minor words allocated *)
  mutable scaled : float;  (* CPU seconds at reference speed *)
}

let start () =
  let last_ref = reference_s () in
  { last_ref; c0 = cpu_s (); t0 = now_ns (); w0 = Gc.minor_words ();
    wall = 0.; words = 0.; scaled = 0. }

let lap m =
  let cpu = cpu_s () -. m.c0 in
  let wall = seconds_since m.t0 in
  let words = Gc.minor_words () -. m.w0 in
  let r = reference_s () in
  m.wall <- m.wall +. wall;
  m.words <- m.words +. words;
  m.scaled <- m.scaled +. (cpu *. reference_nominal_s *. 2. /. (m.last_ref +. r));
  m.last_ref <- r;
  m.c0 <- cpu_s ();
  m.t0 <- now_ns ();
  m.w0 <- Gc.minor_words ()

(* [f ()], timed in one lap. *)
let metered f =
  let m = start () in
  let r = f () in
  lap m;
  (r, m)

(* Live major-heap size after a full compaction, in MiB.  Whatever the
   caller still references counts. *)
let live_heap_mb () =
  Gc.compact ();
  float_of_int ((Gc.stat ()).live_words * (Sys.word_size / 8)) /. 1048576.

let median = function
  | [] -> invalid_arg "Host.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
