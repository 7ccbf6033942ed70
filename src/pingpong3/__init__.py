"""Machine-verified ping-pong in SL3 over F_q((1/t)).

The package builds a pair of diagonal generators spanning Z^2, finds a
regular element g whose attracting/repelling flags sit in the right region,
and certifies -- by a combination of symbolic valuation arguments and
exhaustive residue-ball sweeps -- that the group they generate is the free
product Z^2 * Z and that the embedding is quasi-isometric.  All arithmetic
is exact digit arithmetic over F_q((u)) with tracked precision.
"""

__version__ = "0.1.0"
