(** Small descriptive-statistics helpers used by the evaluation harness. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0. on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0. on lists shorter than 2. *)

val median : float list -> float
(** Median; 0. on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the [p]-quantile ([0. <= p <= 1.], clamped) of
    [xs] with linear interpolation between order statistics; 0. on the
    empty list. *)

val quantile_bucket : q:float -> int array -> int
(** Index of the bucket containing the [q]-quantile of a histogram
    given per-bucket counts (the first populated bucket whose
    cumulative count reaches [q] of the total); -1 if all counts are
    zero.  Used by [Vmht_obs.Histogram.quantile]. *)

val percent_delta : float -> float -> float
(** [percent_delta base v] is [(v - base) / base * 100.]. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], 0. if [b = 0.]. *)
