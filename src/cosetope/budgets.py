"""The closure cap, the one resource budget: every subgroup closure, and
every walk or listing whose size stands in for one, fails loudly past it
instead of stalling.  Every layer takes it as the plain int ``closure_cap``;
``--closure-cap`` is the one way to set a cap other than this default."""

DEFAULT_CLOSURE_CAP = 5_000_000
