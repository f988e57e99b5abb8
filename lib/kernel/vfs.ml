(* In-memory filesystem: a tree of inodes with regular files, directories,
   symlinks and special (generated-content) nodes.

   The tree is shared by every process in a kernel instance — it models the
   host filesystem, which is why MVEE transparency matters: only the master
   replica may mutate it. *)

(* Regular-file backing store: a growable byte array with an explicit
   size. Appends are amortized O(1) (capacity doubles); [Buffer.t] was
   unusable here because random-offset writes forced a full copy of the
   file per write, which made append-heavy workloads quadratic. *)
type filebuf = { mutable bytes : Bytes.t; mutable size : int }

type node = {
  ino : int;
  mutable kind : kind;
  mutable mtime_ns : int;
  mutable xattrs : (string * string) list;
}

and kind =
  | Reg of filebuf
  | Dir of (string, node) Hashtbl.t
  | Symlink of string

let filebuf_create () = { bytes = Bytes.create 256; size = 0 }

(* The largest file size, in the role of a Linux filesystem's s_maxbytes.
   Workload files are kilobytes; the cap sits far above them and, since
   files are stored densely, keeps one call from claiming more host memory
   than this. *)
let max_file_size = 1 lsl 28

(* Grow capacity to hold [n <= max_file_size] bytes; newly exposed bytes
   beyond the old size are zeroed by the callers that create a gap. *)
let filebuf_reserve fb n =
  let cap = Bytes.length fb.bytes in
  if n > cap then begin
    let bigger = Bytes.create (max n (2 * cap)) in
    Bytes.blit fb.bytes 0 bigger 0 fb.size;
    fb.bytes <- bigger
  end

type t = { root : node; mutable next_ino : int }

let mk_node t kind =
  let ino = t.next_ino in
  t.next_ino <- t.next_ino + 1;
  { ino; kind; mtime_ns = 0; xattrs = [] }

let create () =
  let root =
    { ino = 1; kind = Dir (Hashtbl.create 16); mtime_ns = 0; xattrs = [] }
  in
  { root; next_ino = 2 }

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

(* Resolves [path] to a node, following symlinks (bounded depth). *)
let rec resolve_from t node components depth =
  if depth > 16 then Error Errno.ELOOP
  else
    match components with
    | [] -> Ok node
    | name :: rest -> (
      match node.kind with
      | Dir entries -> (
        match Hashtbl.find_opt entries name with
        | None -> Error Errno.ENOENT
        | Some child -> (
          match child.kind with
          | Symlink target -> (
            match resolve_from t t.root (split_path target) (depth + 1) with
            | Ok n -> resolve_from t n rest (depth + 1)
            | Error _ as e -> e)
          | Reg _ | Dir _ -> resolve_from t child rest depth))
      | Reg _ | Symlink _ -> Error Errno.ENOTDIR)

let resolve t path = resolve_from t t.root (split_path path) 0

(* Like [resolve] but does not follow a symlink in the final component. *)
let resolve_nofollow t path =
  match List.rev (split_path path) with
  | [] -> Ok t.root
  | last :: rev_prefix -> (
    let prefix = List.rev rev_prefix in
    match resolve_from t t.root prefix 0 with
    | Error _ as e -> e
    | Ok parent -> (
      match parent.kind with
      | Dir entries -> (
        match Hashtbl.find_opt entries last with
        | None -> Error Errno.ENOENT
        | Some child -> Ok child)
      | _ -> Error Errno.ENOTDIR))

let parent_and_name t path =
  match List.rev (split_path path) with
  | [] -> Error Errno.EINVAL
  | last :: rev_prefix -> (
    match resolve_from t t.root (List.rev rev_prefix) 0 with
    | Error _ as e -> e
    | Ok parent -> (
      match parent.kind with
      | Dir _ -> Ok (parent, last)
      | _ -> Error Errno.ENOTDIR))

let exists t path = Result.is_ok (resolve t path)

let mkdir t path =
  match parent_and_name t path with
  | Error _ as e -> e
  | Ok (parent, name) -> (
    match parent.kind with
    | Dir entries ->
      if Hashtbl.mem entries name then Error Errno.EEXIST
      else begin
        let node = mk_node t (Dir (Hashtbl.create 8)) in
        Hashtbl.replace entries name node;
        Ok node
      end
    | _ -> Error Errno.ENOTDIR)

(* Creates intermediate directories as needed; used for test fixtures. *)
let rec mkdir_p t path =
  match resolve t path with
  | Ok node -> (
    match node.kind with Dir _ -> Ok node | _ -> Error Errno.ENOTDIR)
  | Error _ -> (
    match List.rev (split_path path) with
    | [] -> Ok t.root
    | _ :: rev_prefix -> (
      let parent_path = String.concat "/" (List.rev rev_prefix) in
      match mkdir_p t ("/" ^ parent_path) with
      | Error _ as e -> e
      | Ok _ -> mkdir t path))

let create_file t path =
  match parent_and_name t path with
  | Error _ as e -> e
  | Ok (parent, name) -> (
    match parent.kind with
    | Dir entries -> (
      match Hashtbl.find_opt entries name with
      | Some existing -> (
        match existing.kind with
        | Reg _ -> Ok existing
        | Dir _ -> Error Errno.EISDIR
        | _ -> Error Errno.EEXIST)
      | None ->
        let node = mk_node t (Reg (filebuf_create ())) in
        Hashtbl.replace entries name node;
        Ok node)
    | _ -> Error Errno.ENOTDIR)

let symlink t ~target ~path =
  match parent_and_name t path with
  | Error _ as e -> e
  | Ok (parent, name) -> (
    match parent.kind with
    | Dir entries ->
      if Hashtbl.mem entries name then Error Errno.EEXIST
      else begin
        let node = mk_node t (Symlink target) in
        Hashtbl.replace entries name node;
        Ok node
      end
    | _ -> Error Errno.ENOTDIR)

let unlink t path =
  match parent_and_name t path with
  | Error _ as e -> e
  | Ok (parent, name) -> (
    match parent.kind with
    | Dir entries -> (
      match Hashtbl.find_opt entries name with
      | None -> Error Errno.ENOENT
      | Some node -> (
        match node.kind with
        | Dir _ -> Error Errno.EISDIR
        | _ ->
          Hashtbl.remove entries name;
          Ok ()))
    | _ -> Error Errno.ENOTDIR)

let rmdir t path =
  match parent_and_name t path with
  | Error _ as e -> e
  | Ok (parent, name) -> (
    match parent.kind with
    | Dir entries -> (
      match Hashtbl.find_opt entries name with
      | None -> Error Errno.ENOENT
      | Some node -> (
        match node.kind with
        | Dir children ->
          if Hashtbl.length children > 0 then Error Errno.ENOTEMPTY
          else begin
            Hashtbl.remove entries name;
            Ok ()
          end
        | _ -> Error Errno.ENOTDIR))
    | _ -> Error Errno.ENOTDIR)

let rename t ~src ~dst =
  match (parent_and_name t src, parent_and_name t dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok (sp, sname), Ok (dp, dname) -> (
    match (sp.kind, dp.kind) with
    | Dir sentries, Dir dentries -> (
      match Hashtbl.find_opt sentries sname with
      | None -> Error Errno.ENOENT
      | Some node ->
        Hashtbl.remove sentries sname;
        Hashtbl.replace dentries dname node;
        Ok ())
    | _ -> Error Errno.ENOTDIR)

let list_dir node =
  match node.kind with
  | Dir entries ->
    let names = Hashtbl.fold (fun name _ acc -> name :: acc) entries [] in
    Ok (List.sort String.compare names)
  | _ -> Error Errno.ENOTDIR

let file_size node =
  match node.kind with
  | Reg fb -> fb.size
  | Symlink s -> String.length s
  | Dir _ -> 4096

let stat_kind node =
  match node.kind with
  | Reg _ -> `Reg
  | Dir _ -> `Dir
  | Symlink _ -> `Reg

(* Reads up to [count] bytes at [offset] from a regular file. *)
let read_at node ~offset ~count =
  match node.kind with
  | Reg fb ->
    if offset >= fb.size then Ok ""
    else begin
      let n = min count (fb.size - offset) in
      Ok (Bytes.sub_string fb.bytes offset n)
    end
  | Dir _ -> Error Errno.EISDIR
  | Symlink _ -> Error Errno.EINVAL

(* Writes [data] at [offset]; extends (zero-filling any gap) as needed.
   Amortized O(|data|): only the written range is touched, plus a
   capacity-doubling copy when the file outgrows its backing array.
   Linux's limits: an empty write changes nothing, one starting at or past
   [max_file_size] fails with EFBIG (no SIGXFSZ: that signal belongs to
   RLIMIT_FSIZE), and one crossing it is cut short there. *)
let write_at node ~offset ~data ~now_ns =
  match node.kind with
  | Reg _ when String.length data = 0 -> Ok 0
  | Reg _ when offset >= max_file_size -> Error Errno.EFBIG
  | Reg fb ->
    (* [offset < max_file_size]: no sum below can overflow *)
    let dlen = min (String.length data) (max_file_size - offset) in
    let new_size = max fb.size (offset + dlen) in
    filebuf_reserve fb new_size;
    if offset > fb.size then
      Bytes.fill fb.bytes fb.size (offset - fb.size) '\000';
    Bytes.blit_string data 0 fb.bytes offset dlen;
    fb.size <- new_size;
    node.mtime_ns <- now_ns;
    Ok dlen
  | Dir _ -> Error Errno.EISDIR
  | Symlink _ -> Error Errno.EINVAL

let truncate node ~size ~now_ns =
  match node.kind with
  | Reg _ when size > max_file_size -> Error Errno.EFBIG
  | Reg fb ->
    if size > fb.size then begin
      filebuf_reserve fb size;
      Bytes.fill fb.bytes fb.size (size - fb.size) '\000'
    end;
    fb.size <- size;
    node.mtime_ns <- now_ns;
    Ok ()
  | Dir _ -> Error Errno.EISDIR
  | Symlink _ -> Error Errno.EINVAL
