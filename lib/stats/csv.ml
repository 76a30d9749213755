open Horse_engine

let escape field =
  let needs_quoting =
    String.exists (function ',' | '"' | '\n' -> true | _ -> false) field
  in
  if not needs_quoting then field
  else
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf

let write_row fmt fields =
  Format.fprintf fmt "%s@." (String.concat "," (List.map escape fields))

let write_series fmt series =
  match series with
  | [] -> ()
  | (_, first) :: _ ->
      let n = Series.length first in
      List.iter
        (fun (_, s) ->
          if Series.length s <> n then
            invalid_arg "Csv.save_series: sampling grid mismatch")
        series;
      write_row fmt ("time_s" :: List.map fst series);
      let columns = List.map (fun (_, s) -> Array.of_list (Series.to_list s)) series in
      for i = 0 to n - 1 do
        let at, _ = (List.hd columns).(i) in
        let fields =
          Printf.sprintf "%.6f" (Time.to_sec at)
          :: List.map
               (fun col ->
                 let at', v = col.(i) in
                 if not (Time.equal at at') then
                   invalid_arg "Csv.save_series: sampling grid mismatch";
                 Printf.sprintf "%.6g" v)
               columns
        in
        write_row fmt fields
      done

let save_series ~path series =
  let oc = open_out path in
  let fmt = Format.formatter_of_out_channel oc in
  (try write_series fmt series
   with e ->
     Format.pp_print_flush fmt ();
     close_out oc;
     raise e);
  Format.pp_print_flush fmt ();
  close_out oc
