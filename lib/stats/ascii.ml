open Horse_engine

let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline xs =
  match xs with
  | [] -> ""
  | _ ->
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      let range = if hi -. lo <= 0.0 then 1.0 else hi -. lo in
      let buf = Buffer.create (List.length xs * 3) in
      List.iter
        (fun x ->
          let level = int_of_float ((x -. lo) /. range *. 7.0) in
          Buffer.add_string buf blocks.(Stdlib.max 0 (Stdlib.min 7 level)))
        xs;
      Buffer.contents buf

let glyphs = [| '*'; '+'; 'o'; 'x'; '#'; '@'; '%'; '&' |]

(* Average the samples of [s] into [width] buckets spanning
   [t0, t1]. NaN marks empty buckets. *)
let resample s ~t0 ~t1 ~width =
  let sums = Array.make width 0.0 and counts = Array.make width 0 in
  let span = Stdlib.max 1e-9 (t1 -. t0) in
  List.iter
    (fun (at, v) ->
      let x = (Time.to_sec at -. t0) /. span in
      let col = Stdlib.min (width - 1) (Stdlib.max 0 (int_of_float (x *. float_of_int (width - 1)))) in
      sums.(col) <- sums.(col) +. v;
      counts.(col) <- counts.(col) + 1)
    (Series.to_list s);
  Array.init width (fun i ->
      if counts.(i) = 0 then Float.nan else sums.(i) /. float_of_int counts.(i))

(* Columns of a [plot] and of a [bar_chart]'s longest bar. *)
let plot_width = 72
let bar_width = 50

let plot ?(height = 16) fmt series =
  let width = plot_width in
  let non_empty = List.filter (fun (_, s) -> not (Series.is_empty s)) series in
  match non_empty with
  | [] -> Format.fprintf fmt "(no data)@."
  | _ ->
      let t0 =
        List.fold_left
          (fun acc (_, s) ->
            match Series.to_list s with
            | (at, _) :: _ -> Float.min acc (Time.to_sec at)
            | [] -> acc)
          infinity non_empty
      and t1 =
        List.fold_left
          (fun acc (_, s) ->
            match Series.last s with
            | Some (at, _) -> Float.max acc (Time.to_sec at)
            | None -> acc)
          neg_infinity non_empty
      in
      let vmax =
        List.fold_left (fun acc (_, s) -> Float.max acc (Series.max_value s))
          0.0 non_empty
      in
      let vmax = if vmax <= 0.0 then 1.0 else vmax in
      let cols = List.map (fun (_, s) -> resample s ~t0 ~t1 ~width) non_empty in
      let grid = Array.make_matrix height width ' ' in
      List.iteri
        (fun si col ->
          let glyph = glyphs.(si mod Array.length glyphs) in
          Array.iteri
            (fun x v ->
              if not (Float.is_nan v) then begin
                let y = int_of_float (v /. vmax *. float_of_int (height - 1)) in
                let y = Stdlib.max 0 (Stdlib.min (height - 1) y) in
                grid.(height - 1 - y).(x) <- glyph
              end)
            col)
        cols;
      Format.fprintf fmt "%8.3g +" vmax;
      Format.fprintf fmt "%s@." (String.make width '-');
      Array.iteri
        (fun row line ->
          let label =
            if row = height - 1 then Printf.sprintf "%8.3g |" 0.0
            else "         |"
          in
          Format.fprintf fmt "%s%s@." label (String.init width (fun i -> line.(i))))
        grid;
      Format.fprintf fmt "          +%s@." (String.make width '-');
      let left = Printf.sprintf "%.3gs" t0 and right = Printf.sprintf "%.3gs" t1 in
      Format.fprintf fmt "           %s%*s@." left
        (width - String.length left) right;
      List.iteri
        (fun si (label, _) ->
          Format.fprintf fmt "           %c = %s@."
            glyphs.(si mod Array.length glyphs)
            label)
        non_empty

let bar_chart fmt items =
  let vmax = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 items in
  let vmax = if vmax <= 0.0 then 1.0 else vmax in
  let label_w =
    List.fold_left (fun acc (l, _) -> Stdlib.max acc (String.length l)) 0 items
  in
  List.iter
    (fun (label, v) ->
      let n = int_of_float (v /. vmax *. float_of_int bar_width) in
      Format.fprintf fmt "%-*s | %s %.3g@." label_w label
        (String.make (Stdlib.max 0 n) '#')
        v)
    items
