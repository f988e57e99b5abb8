(** Unix error codes used by the simulated kernel. [EKEYREJECTED] is the
    code IK-B surfaces when an authorization token fails to verify. *)

type t =
  | EPERM
  | ENOENT
  | ESRCH
  | EINTR
  | EIO
  | EBADF
  | EAGAIN
  | ENOMEM
  | EACCES
  | EFAULT
  | EBUSY
  | EEXIST
  | ENOTDIR
  | EISDIR
  | EINVAL
  | ENFILE
  | EMFILE
  | ENOSPC
  | ESPIPE
  | EPIPE
  | ERANGE
  | ENOSYS
  | ENOTEMPTY
  | ELOOP
  | ENOTSOCK
  | EDESTADDRREQ
  | EMSGSIZE
  | EPROTONOSUPPORT
  | EOPNOTSUPP
  | EADDRINUSE
  | EADDRNOTAVAIL
  | ENETUNREACH
  | ECONNABORTED
  | ECONNRESET
  | ENOBUFS
  | EISCONN
  | ENOTCONN
  | ETIMEDOUT
  | ECONNREFUSED
  | EALREADY
  | EINPROGRESS
  | ECHILD
  | EDEADLK
  | ENAMETOOLONG
  | EIDRM
  | ETIME
  | EREMOTEIO
  | EKEYREJECTED (* used by IK-B when an authorization token fails to verify *)
  | EFBIG
  | ENOTTY

val to_string : t -> string
