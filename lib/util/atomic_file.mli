(** Atomic file publication, for outputs that serve as test oracles
    (traces, recordings): a reader, or a run interrupted mid-write, never
    sees a torn file. *)

val write : string -> string -> unit
(** [write path data] writes [data] to a temporary file beside [path] and
    renames it over [path]. The temporary name carries the calling
    domain's id, so domains publishing the same path never share one. On
    failure the temporary file is removed and the exception re-raised. *)
