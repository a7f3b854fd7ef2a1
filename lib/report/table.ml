type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let render ?aligns ~headers ~rows () =
  let cols = List.length headers in
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> cols then
        invalid_arg "Table.render: aligns length mismatch";
      a
    | None -> List.mapi (fun i _ -> if i = 0 then Left else Right) headers
  in
  let normalize row =
    let n = List.length row in
    if n > cols then invalid_arg "Table.render: row longer than header";
    row @ List.init (cols - n) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> Stdlib.max w (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let line ch junction =
    junction
    ^ String.concat junction (List.map (fun w -> String.make (w + 2) ch) widths)
    ^ junction
  in
  let render_row cells =
    "|"
    ^ String.concat "|"
        (List.map2
           (fun (w, a) c -> " " ^ pad a w c ^ " ")
           (List.combine widths aligns) cells)
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line '-' "+");
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line '=' "+");
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (line '-' "+");
  Buffer.add_char buf '\n';
  Buffer.contents buf

let fmt_prob p =
  if p = 0. then "0"
  else if p = 1. then "1.0"
  else if p >= 0.99 then Printf.sprintf "%.4f" p
  else if p >= 0.01 then Printf.sprintf "%.3g" p
  else begin
    (* Scientific with a bare exponent, like the paper's 1.95e-3. *)
    let s = Printf.sprintf "%.2e" p in
    (* Compress exponent: 1.95e-03 -> 1.95e-3 *)
    match String.index_opt s 'e' with
    | None -> s
    | Some i ->
      let mant = String.sub s 0 i in
      let expo = String.sub s (i + 1) (String.length s - i - 1) in
      let sign, digits =
        if expo.[0] = '+' || expo.[0] = '-' then
          (String.make 1 expo.[0], String.sub expo 1 (String.length expo - 1))
        else ("", expo)
      in
      let digits =
        let d = ref 0 in
        while !d < String.length digits - 1 && digits.[!d] = '0' do
          incr d
        done;
        String.sub digits !d (String.length digits - !d)
      in
      mant ^ "e" ^ (if sign = "+" then "" else sign) ^ digits
  end
