(* Linux-style descriptor table. [next] is Linux's [next_fd]: every fd
   below it is open, so the lowest-free search starts there. A search that
   began at the hint, or an install at the hint, moves it past the slot
   taken; freeing a slot below it lowers it. Slots are tested with
   [match], never [<> None], which would be a polymorphic compare. *)

type 'a t = {
  mutable slots : 'a option array;
  mutable next : int;
}

let limit = 1 lsl 20
let initial_slots = 16
let in_range fd = fd >= 0 && fd < limit
let create () = { slots = Array.make initial_slots None; next = 0 }

let find t fd =
  let slots = t.slots in
  if fd >= 0 && fd < Array.length slots then Array.unsafe_get slots fd else None

let mem t fd = match find t fd with Some _ -> true | None -> false

(* Doubles the slot array until it covers [fd]. [limit] is a power of two,
   so growth never overshoots it. *)
let grow t fd =
  if fd >= limit then invalid_arg "Fdtable: fd beyond the table limit";
  let old = t.slots in
  let n = ref (Array.length old) in
  while !n <= fd do
    n := 2 * !n
  done;
  let slots = Array.make !n None in
  Array.blit old 0 slots 0 (Array.length old);
  t.slots <- slots

let store t fd v =
  if fd >= Array.length t.slots then grow t fd;
  t.slots.(fd) <- Some v

let alloc t ~from v =
  if not (in_range from) then invalid_arg "Fdtable.alloc";
  let slots = t.slots in
  let len = Array.length slots in
  let rec scan fd =
    if fd >= len then fd
    else match Array.unsafe_get slots fd with Some _ -> scan (fd + 1) | None -> fd
  in
  let fd = scan (if from < t.next then t.next else from) in
  store t fd v;
  if from <= t.next then t.next <- fd + 1;
  fd

let set t fd v =
  if not (in_range fd) then invalid_arg "Fdtable.set";
  store t fd v;
  if fd = t.next then t.next <- fd + 1

let remove t fd =
  if fd >= 0 && fd < Array.length t.slots then begin
    t.slots.(fd) <- None;
    if fd < t.next then t.next <- fd
  end

let iter f t =
  let slots = t.slots in
  for fd = 0 to Array.length slots - 1 do
    match Array.unsafe_get slots fd with Some v -> f fd v | None -> ()
  done

let bindings t =
  let slots = t.slots in
  let acc = ref [] in
  for fd = Array.length slots - 1 downto 0 do
    match Array.unsafe_get slots fd with
    | Some v -> acc := (fd, v) :: !acc
    | None -> ()
  done;
  !acc

let reset t =
  t.slots <- Array.make initial_slots None;
  t.next <- 0
