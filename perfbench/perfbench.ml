(* The benchmark executable. One run measures one workload for a fixed
   wall-clock window and prints every metric of its mode by name and
   unit, then one JSON result line:

     perfbench.exe --workload avl-churn --seed 1 --seconds 10 --trace 0
       --alphonsec _build/default/bin/alphonsec.exe --state-dir DIR

   [--trace 0] prints the end-to-end metrics; [--trace 1] alternates
   untraced and traced blocks of ops and prints the per-layer metrics.
   [--smoke] shrinks every input so that a run takes about a second. *)

let workloads = [ "avl-churn"; "sheet-reads"; "eager-fronts"; "daemon-wal" ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let alphonsec = ref "" and state_dir = ref "" and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed window");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--alphonsec", Arg.Set_string alphonsec, " the alphonsec binary (daemon-wal)");
      ("--state-dir", Arg.Set_string state_dir, " scratch directory (daemon-wal)");
      ("--smoke", Arg.Set smoke, " tiny inputs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let cfg =
    { Inproc.seed = !seed; seconds = !seconds; traced = !trace = 1; smoke = !smoke }
  in
  let small big tiny = if !smoke then tiny else big in
  let result =
    match !workload with
    | "avl-churn" ->
      Inproc.run ~name:!workload (Avl_churn.workload ~size:(small 4096 64) ~round_ops:(small 1000 100)) cfg
    | "sheet-reads" ->
      Inproc.run ~name:!workload (Sheet_reads.workload ~rows:(small 256 16) ~round_ops:(small 5000 max_int)) cfg
    | "eager-fronts" ->
      Inproc.run ~name:!workload (Eager_fronts.workload ~leaves:(small 1024 128) ~round_ops:(small 5000 max_int)) cfg
    | "daemon-wal" ->
      if !alphonsec = "" || !state_dir = "" then
        raise (Arg.Bad "daemon-wal needs --alphonsec and --state-dir");
      Daemon_wal.run
        {
          Daemon_wal.tenants = small 256 8;
          chain = small 64 8;
          alphonsec = !alphonsec;
          state_dir = !state_dir;
          reps = small 3 1;
        }
        cfg
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  Report.print ~traced:cfg.traced result
