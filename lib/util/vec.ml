(* Minimal growable array (Dynarray-style; stdlib's arrives only in 5.2).

   Used for hot-path collections that only ever append — per-process thread
   tables, most prominently — where the previous [xs <- xs @ [x]] idiom
   cost O(n) per append and O(n²) over a run. Iteration order is insertion
   order, matching the list-based code it replaces. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let push t x =
  let cap = Array.length t.data in
  if t.len >= cap then begin
    let bigger = Array.make (max 4 (2 * cap)) x in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let for_all p t =
  let rec go i = i >= t.len || (p t.data.(i) && go (i + 1)) in
  go 0

let first_opt t = if t.len = 0 then None else Some t.data.(0)

let to_list t = List.init t.len (fun i -> t.data.(i))
