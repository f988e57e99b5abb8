(* FIFO byte stream used as the backing store for pipes and socket receive
   queues. Strings are stored in arrival order; [pull] consumes from the
   front without copying more than it returns. *)

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

let pull t n =
  let n = min n t.length in
  if n <= 0 then ""
  else begin
    let buf = Buffer.create n in
    let remaining = ref n in
    while !remaining > 0 do
      let front = Queue.peek t.chunks in
      let avail = String.length front - t.front_off in
      let take = min avail !remaining in
      Buffer.add_substring buf front t.front_off take;
      remaining := !remaining - take;
      if take = avail then begin
        ignore (Queue.pop t.chunks);
        t.front_off <- 0
      end
      else t.front_off <- t.front_off + take
    done;
    t.length <- t.length - n;
    Buffer.contents buf
  end

