let () =
  exit (Ksa_bench_lib.Main.main ~exe:Sys.executable_name (Array.to_list Sys.argv))
