type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_nan f || f = infinity || f = neg_infinity then
        (* JSON has no NaN/inf; clamp to null rather than emit garbage. *)
        Buffer.add_string buf "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; loop ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; loop ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; loop ()
        | Some '"' -> advance st; Buffer.add_char buf '"'; loop ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; loop ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; loop ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then fail st "bad \\u escape";
            let hex = String.sub st.src st.pos 4 in
            st.pos <- st.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail st "bad \\u escape"
            in
            (* Only BMP escapes below 0x80 round-trip exactly; others
               are preserved as a replacement byte sequence. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_string buf "\xef\xbf\xbd";
            loop ()
        | _ -> fail st "bad escape")
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec loop () =
    match peek st with
    | Some c when is_num_char c ->
        advance st;
        loop ()
    | _ -> ()
  in
  loop ();
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail st "bad number")

let max_depth = 128

(* [depth] counts the arrays and objects enclosing the value; past
   [max_depth] the input is rejected instead of recursed into, so a
   hostile wire line or corpus file cannot exhaust the stack. *)
let rec parse_value st depth =
  skip_ws st;
  match peek st with
  | Some ('[' | '{') when depth >= max_depth ->
      fail st (Printf.sprintf "nesting deeper than %d" max_depth)
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields (kv :: acc)
          | Some '}' ->
              advance st;
              List.rev (kv :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected %C" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st 0 with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List xs -> xs | _ -> []

let string_value = function String s -> Some s | _ -> None

let int_value = function Int i -> Some i | _ -> None

let float_value = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
