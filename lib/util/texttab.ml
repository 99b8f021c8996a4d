type align = Left | Right

type t = {
  headers : (string * align) list;
  mutable rows : string list list; (* reversed *)
}

let create_aligned ~headers = { headers; rows = [] }

let create ~headers =
  create_aligned ~headers:(List.map (fun h -> (h, Right)) headers)

let row t cells =
  if List.length cells <> List.length t.headers then
    Fatal.misuse "Texttab.row: arity mismatch";
  t.rows <- cells :: t.rows

let render t =
  let headers = List.map fst t.headers in
  let aligns = List.map snd t.headers in
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w r -> Stdlib.max w (String.length (List.nth r i)))
          (String.length h) rows)
      headers
  in
  let pad align width s =
    let n = width - String.length s in
    if n <= 0 then s
    else
      match align with
      | Left -> s ^ String.make n ' '
      | Right -> String.make n ' ' ^ s
  in
  let buf = Buffer.create 256 in
  let render_row cells =
    let padded =
      List.map2
        (fun (cell, align) width -> pad align width cell)
        (List.combine cells aligns) widths
    in
    Buffer.add_string buf ("| " ^ String.concat " | " padded ^ " |\n")
  in
  render_row headers;
  let rule =
    List.map (fun w -> String.make w '-') widths |> String.concat "-+-"
  in
  Buffer.add_string buf ("+-" ^ rule ^ "-+\n");
  List.iter render_row rows;
  Buffer.contents buf

let print t = print_string (render t)

let series ~title ~x_label ~y_labels points =
  let t = create ~headers:(x_label :: y_labels) in
  List.iter
    (fun (x, ys) ->
      row t
        (Printf.sprintf "%g" x :: List.map (fun y -> Printf.sprintf "%.1f" y) ys))
    points;
  Printf.sprintf "== %s ==\n%s" title (render t)
