"""The construction itself: generators, exclusion, search, sweeps, words."""
