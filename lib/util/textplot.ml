let bar_chart ~title rows =
  let width = 50 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%s\n" title);
  let maxv = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 rows in
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows
  in
  let scale = if maxv <= 0.0 then 0.0 else float_of_int width /. maxv in
  List.iter
    (fun (label, v) ->
      let n = int_of_float (v *. scale) in
      Buffer.add_string buf
        (Printf.sprintf "  %-*s | %s %g\n" label_w label (String.make n '#') v))
    rows;
  Buffer.contents buf

let stacked_rows ~title ~header rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%s\n" title);
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 8 rows
  in
  Buffer.add_string buf (Printf.sprintf "  %-*s" label_w "");
  List.iter (fun h -> Buffer.add_string buf (Printf.sprintf " %10s" h)) header;
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, vs) ->
      let total = List.fold_left ( +. ) 0.0 vs in
      Buffer.add_string buf (Printf.sprintf "  %-*s" label_w label);
      List.iter
        (fun v ->
          let pct = if total = 0.0 then 0.0 else 100.0 *. v /. total in
          Buffer.add_string buf (Printf.sprintf " %9.1f%%" pct))
        vs;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let series ~title ~x_label ~y_label all =
  let height = 16 and width = 72 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "%s\n" title);
  let pts = List.concat_map snd all in
  if pts = [] then begin
    Buffer.add_string buf "  (no data)\n";
    Buffer.contents buf
  end
  else begin
    let xs = List.map fst pts and ys = List.map snd pts in
    let xmin = List.fold_left Float.min infinity xs in
    let xmax = List.fold_left Float.max neg_infinity xs in
    let ymin = List.fold_left Float.min infinity ys in
    let ymax = List.fold_left Float.max neg_infinity ys in
    let xspan = if xmax > xmin then xmax -. xmin else 1.0 in
    let yspan = if ymax > ymin then ymax -. ymin else 1.0 in
    let grid = Array.make_matrix height width ' ' in
    let glyphs = [| '*'; 'o'; '+'; 'x'; '@'; '%' |] in
    List.iteri
      (fun si (_, points) ->
        let glyph = glyphs.(si mod Array.length glyphs) in
        List.iter
          (fun (x, y) ->
            let cx =
              int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1))
            in
            let cy =
              height - 1
              - int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1))
            in
            if cx >= 0 && cx < width && cy >= 0 && cy < height then
              grid.(cy).(cx) <- glyph)
          points)
      all;
    Buffer.add_string buf (Printf.sprintf "  %s (max %.4g)\n" y_label ymax);
    Array.iter
      (fun row ->
        Buffer.add_string buf "  |";
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf (Printf.sprintf "  +%s\n" (String.make width '-'));
    Buffer.add_string buf
      (Printf.sprintf "   %s: %.4g .. %.4g   legend:" x_label xmin xmax);
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf " %c=%s" glyphs.(si mod Array.length glyphs) name))
      all;
    Buffer.add_char buf '\n';
    Buffer.contents buf
  end

let boxplots ~title rows =
  let width = 60 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%s\n" title);
  let lo =
    List.fold_left (fun acc (_, b) -> Float.min acc b.Stats.whisker_low)
      infinity rows
  in
  let hi =
    List.fold_left (fun acc (_, b) -> Float.max acc b.Stats.whisker_high)
      neg_infinity rows
  in
  let span = if hi > lo then hi -. lo else 1.0 in
  let pos v =
    int_of_float ((v -. lo) /. span *. float_of_int (width - 1))
  in
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows
  in
  List.iter
    (fun (label, b) ->
      let line = Bytes.make width ' ' in
      let wl = pos b.Stats.whisker_low and wh = pos b.Stats.whisker_high in
      let q1 = pos b.Stats.q1 and q3 = pos b.Stats.q3 in
      let md = pos b.Stats.med in
      for i = wl to wh do
        Bytes.set line i '-'
      done;
      for i = q1 to q3 do
        Bytes.set line i '='
      done;
      Bytes.set line wl '|';
      Bytes.set line wh '|';
      Bytes.set line md 'M';
      Buffer.add_string buf
        (Printf.sprintf "  %-*s [%s] med=%.4g iqr=[%.4g,%.4g]\n" label_w label
           (Bytes.to_string line) b.Stats.med b.Stats.q1 b.Stats.q3))
    rows;
  Buffer.add_string buf (Printf.sprintf "  scale: %.4g .. %.4g\n" lo hi);
  Buffer.contents buf

let table ~title ~header rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%s\n" title);
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let render row =
    Buffer.add_string buf "  ";
    List.iteri
      (fun i cell -> Buffer.add_string buf (Printf.sprintf "%-*s  " widths.(i) cell))
      row;
    Buffer.add_char buf '\n'
  in
  render header;
  Buffer.add_string buf "  ";
  Array.iter
    (fun w -> Buffer.add_string buf (String.make w '-' ^ "  "))
    widths;
  Buffer.add_char buf '\n';
  List.iter render rows;
  Buffer.contents buf
