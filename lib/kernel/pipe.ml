(* Anonymous pipe: bounded FIFO with reader/writer reference counting.

   Blocking behaviour (readers waiting on an empty pipe, writers on a full
   one) is implemented by the dispatcher's park/retry mechanism; this module
   is pure state. *)

type t = {
  capacity : int;
  data : Bytestream.t;
  mutable readers : int; (* open read descriptors *)
  mutable writers : int; (* open write descriptors *)
}

let default_capacity = 65_536

let create ?(capacity = default_capacity) () =
  { capacity; data = Bytestream.create (); readers = 1; writers = 1 }

let bytes_available t = Bytestream.length t.data

let space_available t = t.capacity - Bytestream.length t.data

let write_closed t = t.writers = 0

let read_closed t = t.readers = 0

(* Returns the number of bytes accepted (short writes when nearly full).
   When all of [data] fits, the pipe keeps [data] itself. *)
let write t data =
  let room = space_available t in
  let len = String.length data in
  let n = min room len in
  if n > 0 then
    Bytestream.push t.data (if n = len then data else String.sub data 0 n);
  n

let read t count = Bytestream.pull t.data count
