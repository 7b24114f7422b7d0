(** Dense matrices solved by LU factorisation with partial pivoting.

    The test oracle [La.Sparse] is checked against. *)

type t
(** A mutable [n x m] matrix of floats. *)

val create : int -> int -> t
(** [create n m] is an [n x m] zero matrix. *)

val identity : int -> t
val of_arrays : float array array -> t
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val add_to : t -> int -> int -> float -> unit
(** [add_to a i j x] performs [a.(i).(j) <- a.(i).(j) +. x] — the MNA
    "stamp" primitive. *)

val mul_vec : t -> float array -> float array

exception Singular of int
(** Raised by {!solve} when no usable pivot exists in the given
    column. *)

val solve : t -> float array -> float array
(** [solve a b] is [x] with [A x = b], by LU factorisation of a copy of
    the square matrix [a] ([a] is not modified).
    @raise Singular when the matrix is numerically singular. *)
