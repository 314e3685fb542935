(** Small statistics toolkit for the experiment harness.

    Provides the summary statistics the paper's evaluation reports:
    medians (Fig. 10 uses per-exit medians), percentiles and boxplot
    five-number summaries, means with confidence intervals, and the
    sign-test p-value used to claim significance over paired runs. *)

val mean : float array -> float
(** Arithmetic mean. Empty input yields [nan]. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); [0.] for n < 2. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], linear interpolation
    between closest ranks.  The input need not be sorted. *)

val median : float array -> float

type quantiles = {
  q_n : int;
  q_p50 : float;
  q_p95 : float;
  q_p99 : float;
  q_max : float;
}
(** The latency-summary tuple every consumer of a sample distribution
    reports (handler service times, locator probe costs). *)

val quantiles : float array -> quantiles option
(** [None] on empty input; otherwise p50/p95/p99/max by the same
    linear-interpolation rule as {!percentile}. *)

type boxplot = {
  whisker_low : float;
  q1 : float;
  med : float;
  q3 : float;
  whisker_high : float;
  outliers : float list;
}
(** Five-number summary with 1.5×IQR whiskers, as drawn in Fig. 10. *)

val boxplot : float array -> boxplot

val sign_test_p : float array -> float array -> float
(** [sign_test_p a b] is the two-sided sign-test p-value for paired
    samples [a] and [b] (ties dropped).  Used to back the paper's
    "p-value < 0.05" claim on the 15 efficiency runs. *)

val pct_change : float -> float -> float
(** [pct_change base v] is [(v - base) / base * 100.]. *)
