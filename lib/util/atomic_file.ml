let write path data =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Domain.self () :> int) in
  let oc = open_out_bin tmp in
  try
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc data;
        close_out oc);
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
