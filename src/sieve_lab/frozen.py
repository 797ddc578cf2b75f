"""Frozen regression maxima; regenerate with `python -m sieve_lab.regression`."""

FROZEN_RATIOS = {
    "seed": 12648430,
    "weyl_bound_max": 0.9437278165066461,
    "min_sum_bound_max": 0.6500564618369498,
    "delta_ratio_max": {
        "2": {"kappa": 0.9918505581249305, "loglog": 0.25617324731750096, "delta": 0.9421819408462768},
        "3": {"kappa": 2.38738863606386, "loglog": 0.28242745448267004, "delta": 2.1642876008233305},
    },
}
