(** Small list utilities shared across the libraries. *)

val range : int -> int -> int list
(** [range lo hi] is [lo; lo+1; ...; hi-1] (empty if [hi <= lo]). *)

val take : int -> 'a list -> 'a list
(** First [k] elements (all of them if shorter). *)

val drop : int -> 'a list -> 'a list

val chunks : int -> 'a list -> 'a list list
(** [chunks k xs] splits [xs] into consecutive blocks of size [k];
    the last block may be shorter.  @raise Invalid_argument if
    [k <= 0]. *)

val disjoint : 'a list -> 'a list -> bool
(** Whether two lists share no element. *)

val subset : 'a list -> 'a list -> bool
(** [subset xs ys]: every element of [xs] occurs in [ys]. *)

val intersect : 'a list -> 'a list -> 'a list
(** Elements of the first list also present in the second, preserving
    first-list order, deduplicated. *)

val pairwise_disjoint : 'a list list -> bool

val combinations : int -> 'a list -> 'a list list
(** All size-[k] sublists, in order.  [combinations 2 [1;2;3]] is
    [[1;2]; [1;3]; [2;3]].  Empty if [k] exceeds the length. *)
