"""The encoding of the backtracking game into its aux-free variant.

In the aux-free game G2' Prover remembers no integers.  Its rules are G2's,
which never read the auxiliary word (``g2_apply`` only appends ``B``), so a
G2' play is a G2 play on the packed board in which every ``B`` is 1.  Child
indices of the packed board hold the original child index together with the
auxiliary value, so an oblivious strategy can recover its auxiliary word
from the vertex path alone.  Backtrack landings always use raw index 1,
which decodes to the neutral auxiliary value; strategies whose remembered
integers follow the canonical policy (carry the replaced sibling's value on
option 2, neutral on option 3) replay in exact lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

from pebblegames.g2 import ObliviousStrategy, ProverMove
from pebblegames.matching import LogPower, Matching, Query
from pebblegames.trees import TreeOracle, Vertex


@dataclass(frozen=True)
class PrimeCodec:
    """Pack (child index, auxiliary value) into one child index."""

    cap: int  # the original per-level bound

    def encode(self, k: int, a: int) -> int:
        if not (1 <= k <= self.cap and 1 <= a <= self.cap):
            raise ValueError(f"encode({k}, {a}) outside [1, {self.cap}]^2")
        return a * (self.cap + 1) + k

    def decode(self, j: int) -> tuple[int, int]:
        """Inverse on proper encodings; raw indices below the block size
        decode with the neutral auxiliary value 1."""
        k, a = self.decode_raw(j)
        return k, max(a, 1)

    def decode_raw(self, j: int) -> tuple[int, int]:
        a, k = divmod(j - 1, self.cap + 1)
        return k + 1, a

    def vertex_down(self, v_prime: Vertex) -> Vertex:
        return tuple(self.decode(j)[0] for j in v_prime)

    def aux_of(self, v_prime: Vertex) -> tuple[int, ...]:
        return tuple(self.decode(j)[1] for j in v_prime)


# required_prime_degree looks no further than this exponent.
MAX_PRIME_DEGREE = 12


def required_prime_degree(cfg: LogPower) -> int:
    """The least exponent making the packed indices fit the new budget."""
    need = cfg.cap * (cfg.cap + 1) + cfg.cap
    for c2 in range(cfg.C, MAX_PRIME_DEGREE + 1):
        if need <= 2 ** (cfg.bitlen**c2):
            return c2
    raise ValueError(f"no admissible degree <= {MAX_PRIME_DEGREE} for {cfg}")


def to_g2prime(
    strategy: ObliviousStrategy, cfg: LogPower, tree: TreeOracle
) -> tuple[LogPower, TreeOracle, ObliviousStrategy, PrimeCodec]:
    """Translate an oblivious strategy to the aux-free game.

    The translated board contains a vertex exactly when its decoded index
    path lies on the original board (auxiliary parts are free).  The
    translated strategy reads its aux from the vertex path and plays every
    move with ``B`` = 1, so it runs on the G2 engine.
    """
    cfg_prime = LogPower(cfg.n, required_prime_degree(cfg))
    codec = PrimeCodec(cfg.cap)

    def member(v_prime: Vertex) -> bool:
        ks = []
        for j in v_prime:
            k, a = codec.decode_raw(j)
            if not (1 <= k <= cfg.cap and 0 <= a <= cfg.cap):
                return False
            ks.append(k)
        return tuple(ks) in tree

    tree_prime = TreeOracle(member, tree.max_height)

    def query(v_prime: Vertex, m: Matching, _aux: tuple[int, ...]) -> Query:
        return strategy.query(codec.vertex_down(v_prime), m, codec.aux_of(v_prime))

    def move(v_prime: Vertex, m: Matching, _aux: tuple[int, ...], answer: Matching) -> ProverMove:
        mv = strategy.move(codec.vertex_down(v_prime), m, codec.aux_of(v_prime), answer)
        if mv.option == 1:
            return ProverMove(1, codec.encode(mv.x, mv.b), 1)  # type: ignore[arg-type]
        x: Vertex = mv.x  # type: ignore[assignment]
        return ProverMove(mv.option, v_prime[: len(x)], 1)

    return cfg_prime, tree_prime, ObliviousStrategy(query, move), codec
