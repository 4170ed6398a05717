(* Tests for the metrics library: exact samples, counters, and table
   rendering. *)

open Rt_metrics

(* --- Sample ----------------------------------------------------------- *)

let test_sample_basics () =
  let s = Sample.create () in
  Alcotest.(check bool) "empty" true (Sample.is_empty s);
  List.iter (Sample.add s) [ 5.; 1.; 3.; 2.; 4. ];
  Alcotest.(check int) "count" 5 (Sample.count s);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Sample.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Sample.min s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Sample.max s);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Sample.percentile s 50.);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Sample.percentile s 100.);
  Alcotest.(check (float 1e-9)) "p1 = min" 1.0 (Sample.percentile s 1.)

let test_sample_add_after_percentile () =
  (* Percentile sorts internally; later adds must still be seen. *)
  let s = Sample.create () in
  Sample.add s 10.;
  ignore (Sample.percentile s 50.);
  Sample.add s 1.;
  Alcotest.(check (float 1e-9)) "new min visible" 1.0 (Sample.min s)

let test_sample_merge_clear () =
  let a = Sample.create () and b = Sample.create () in
  Sample.add a 1.;
  Sample.add b 2.;
  let m = Sample.merge a b in
  Alcotest.(check int) "merged count" 2 (Sample.count m);
  Alcotest.(check (float 1e-9)) "merged total" 3.0 (Sample.total m);
  Sample.clear a;
  Alcotest.(check bool) "cleared" true (Sample.is_empty a)

let test_sample_stddev () =
  let s = Sample.create () in
  List.iter (Sample.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check (float 1e-9)) "known stddev" 2.0 (Sample.stddev s)

let prop_sample_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Sample.create () in
      List.iter (Sample.add s) xs;
      let ps = [ 1.; 25.; 50.; 75.; 90.; 99.; 100. ] in
      let vals = List.map (Sample.percentile s) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vals)

(* --- Counter ------------------------------------------------------------ *)

let test_counter () =
  let c = Counter.create () in
  Alcotest.(check int) "default zero" 0 (Counter.get c "x");
  Counter.incr c "x";
  Counter.incr c "x";
  Counter.incr c "y";
  Alcotest.(check int) "x" 2 (Counter.get c "x");
  Alcotest.(check (list string)) "names sorted" [ "x"; "y" ] (Counter.names c);
  Counter.set c "y" 42;
  Alcotest.(check (list (pair string int))) "assoc" [ ("x", 2); ("y", 42) ]
    (Counter.to_assoc c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.get c "x")

(* --- Table --------------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_rule t;
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "header present" true
    (String.length (List.nth lines 0) > 0);
  (* All non-empty lines share the same width. *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  let w0 = List.hd widths in
  Alcotest.(check bool) "aligned" true (List.for_all (fun w -> w = w0) widths);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_cells () =
  Alcotest.(check string) "float cell" "3.14" (Table.cell_f 3.14159);
  Alcotest.(check string) "decimals" "3.1416"
    (Table.cell_f ~decimals:4 3.14159);
  Alcotest.(check string) "int cell" "42" (Table.cell_i 42)

let () =
  Alcotest.run "metrics"
    [
      ( "sample",
        [
          Alcotest.test_case "basics" `Quick test_sample_basics;
          Alcotest.test_case "add after percentile" `Quick
            test_sample_add_after_percentile;
          Alcotest.test_case "merge/clear" `Quick test_sample_merge_clear;
          Alcotest.test_case "stddev" `Quick test_sample_stddev;
          QCheck_alcotest.to_alcotest prop_sample_percentile_monotone;
        ] );
      ("counter", [ Alcotest.test_case "counter" `Quick test_counter ]);
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
    ]
