(** Sparse linear solver for MNA systems.

    The circuit matrices produced by {!Spice.Mna} have a pattern that is
    fixed for the whole simulation (only values change between Newton
    iterations and time steps), so the workflow is:

    + build a {!pattern} once from the list of stamped [(row, col)] pairs;
    + {!analyze} it once (fill-reducing ordering + symbolic LU);
    + per Newton iteration, refill the {!matrix} values and call
      {!factor} / {!solve}.

    No pivoting is performed; MNA matrices regularised with a gmin
    conductance on every node diagonal are safely factorable this way, and
    {!factor} substitutes a tiny pivot when it encounters an exact zero. *)

type pattern
(** The fixed sparsity structure of an [n x n] matrix. *)

val pattern_of_entries : int -> (int * int) list -> pattern
(** [pattern_of_entries n entries] builds the structure.  Duplicate entries
    collapse to one slot.  All diagonal slots are always included.
    @raise Invalid_argument on out-of-range indices. *)

val pattern_size : pattern -> int
(** The dimension [n]. *)

val nnz : pattern -> int
(** Number of stored entries. *)

val slot : pattern -> int -> int -> int
(** [slot p i j] is the index into the values array backing entry [(i,j)].
    @raise Not_found when [(i,j)] is not part of the pattern. *)

type matrix = { pattern : pattern; values : float array }
(** Values are indexed by {!slot}. *)

val create_matrix : pattern -> matrix
val clear : matrix -> unit
(** Reset all values to zero (pattern retained). *)

val add_to : matrix -> int -> int -> float -> unit
(** Stamp primitive: [add_to m i j x] adds [x] to entry [(i,j)].
    @raise Not_found when [(i,j)] is not part of the pattern. *)

val get : matrix -> int -> int -> float
(** Entry value; zero when outside the pattern. *)

val mul_vec : matrix -> float array -> float array

type symbolic
(** Fill-reducing ordering plus the symbolic LU factorisation. *)

val analyze : pattern -> symbolic
(** Minimum-degree ordering and symbolic factorisation. *)

val fill_nnz : symbolic -> int
(** Entries in L + U after fill-in (diagnostics). *)

type numeric
(** A numeric LU factorisation. *)

exception Singular of int

val factor : symbolic -> matrix -> numeric
(** Numeric factorisation using the precomputed symbolic structure.
    @raise Singular when a pivot is non-finite. *)

val solve : numeric -> float array -> float array
(** Solve [A x = b]. *)
