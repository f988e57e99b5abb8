(* FIFO byte stream used as the backing store for pipes and socket receive
   queues. Strings are stored in arrival order, as the writers passed them:
   OCaml strings are immutable, so the queue can hold the writer's own
   string and hand that same string to a reader. [pull] allocates only when
   a read does not take exactly what is left of the front chunk: one
   [String.sub] for a read inside that chunk, one [Bytes.create] for a read
   that joins several. *)

type t = {
  chunks : string Queue.t;
  mutable front_off : int; (* consumed prefix of the front chunk *)
  mutable length : int;
}

let create () = { chunks = Queue.create (); front_off = 0; length = 0 }

let length t = t.length

let push t s =
  if String.length s > 0 then begin
    Queue.push s t.chunks;
    t.length <- t.length + String.length s
  end

(* Consumes [take] bytes of the front chunk, of which [avail] remain. *)
let advance t ~take ~avail =
  if take = avail then begin
    ignore (Queue.pop t.chunks);
    t.front_off <- 0
  end
  else t.front_off <- t.front_off + take

let pull t n =
  let n = min n t.length in
  if n <= 0 then ""
  else begin
    let front = Queue.peek t.chunks in
    let off = t.front_off in
    let avail = String.length front - off in
    t.length <- t.length - n;
    if n <= avail then begin
      advance t ~take:n ~avail;
      if off = 0 && n = avail then front else String.sub front off n
    end
    else begin
      let buf = Bytes.create n in
      let pos = ref 0 in
      while !pos < n do
        let front = Queue.peek t.chunks in
        let avail = String.length front - t.front_off in
        let take = min avail (n - !pos) in
        Bytes.blit_string front t.front_off buf !pos take;
        pos := !pos + take;
        advance t ~take ~avail
      done;
      Bytes.unsafe_to_string buf
    end
  end
