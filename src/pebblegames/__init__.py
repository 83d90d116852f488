"""Prover-Delayer pebble games over the pigeonhole principle.

Engines for the backtracking game played on a bounded tree and the
two-record simplified game, together with strategy analysis (multigraph
walks, php-trees) and exhaustive desk-scale verifiers.
"""

from pebblegames.matching import GameSize, LogPower, Matching, Query, Record

__all__ = ["GameSize", "LogPower", "Matching", "Query", "Record"]
