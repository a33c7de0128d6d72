(** Two-dimensional specialization: vertex enumeration and exact-ish
    areas by the shoelace formula.

    Most GIS examples live in the plane, where the H-to-V conversion is
    a simple pairwise line intersection; this module provides the fast
    path the general machinery does not need LP for. *)

val vertices : Polytope.t -> Vec.t list
(** Vertices of a bounded 2-D polytope in counter-clockwise order
    (empty list when the polytope is empty or lower-dimensional).
    @raise Invalid_argument if the polytope is not 2-D. *)

val area : Polytope.t -> float
(** Shoelace area of the vertex polygon. *)

val perimeter : Polytope.t -> float

val centroid : Polytope.t -> Vec.t option
(** Area centroid; [None] for empty/degenerate polygons. *)

val contains_polygon : Polytope.t -> Vec.t list -> bool
(** Do all listed points lie inside (with a small slack)? *)
