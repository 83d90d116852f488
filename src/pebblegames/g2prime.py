"""The aux-free variant of the backtracking game and the encoding into it.

Child indices of the translated board pack the original child index
together with the auxiliary value, so an oblivious strategy can recover its
auxiliary word from the vertex path alone.  Backtrack landings always use
raw index 1, which decodes to the neutral auxiliary value; strategies whose
remembered integers follow the canonical policy (carry the replaced
sibling's value on option 2, neutral on option 3) replay in exact lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from pebblegames.matching import (
    GameSize,
    LogPower,
    Matching,
    Query,
    matchings_consistent,
    minimal_covers,
)
from pebblegames.trees import TreeOracle, Vertex, is_prefix
from pebblegames.g2 import (
    ContractViolation,
    G2Tag,
    MalformedMove,
    ObliviousStrategy,
)


# ---------------------------------------------------------------------------
# The aux-free game engine.


@dataclass(frozen=True)
class G2PrimePosition:
    labels: dict[Vertex, Matching]

    def __post_init__(self) -> None:
        dom = tuple(sorted(self.labels))
        if not dom:
            raise ValueError("positions are nonempty")
        have = set(dom)
        for v in dom:
            if v and v[:-1] not in have:
                raise ValueError(f"domain not downward closed at {v}")
        object.__setattr__(self, "_dom", dom)

    @property
    def dom(self) -> tuple[Vertex, ...]:
        return self._dom  # type: ignore[attr-defined]

    @property
    def frontier(self) -> Vertex:
        return self.dom[-1]


@dataclass(frozen=True)
class G2PrimeMove:
    option: int
    x: Union[int, Vertex]


@dataclass(frozen=True)
class G2PrimeStrategy:
    query: Callable[[Vertex, Matching], Query]
    move: Callable[[Vertex, Matching, Matching], G2PrimeMove]


def g2prime_apply(
    pos: G2PrimePosition,
    answer: Matching,
    mv: G2PrimeMove,
    tree: TreeOracle,
) -> tuple[G2Tag, Optional[G2PrimePosition]]:
    """Identical transition rules, with the auxiliary bookkeeping dropped."""
    c = pos.frontier
    if mv.option == 1:
        if not isinstance(mv.x, int) or mv.x < 1:
            raise MalformedMove(f"option 1 needs a child index, got {mv.x!r}")
        target = c + (mv.x,)
        if target not in tree:
            return G2Tag.PROVER_LOSES, None
        carried = pos.labels[c]
        if not matchings_consistent(carried, answer):
            return G2Tag.PROVER_WINS, None
        new = dict(pos.labels)
        new[target] = carried.union(answer)
        return G2Tag.ONGOING, G2PrimePosition(new)

    x: Vertex = mv.x  # type: ignore[assignment]
    if not isinstance(x, tuple) or x == c or not is_prefix(x, c):
        raise MalformedMove(f"option {mv.option} needs a proper prefix of {c}")
    k = c[len(x)]

    if mv.option == 2:
        target = x + (k + 1,)
        if target not in tree:
            return G2Tag.PROVER_LOSES, None
        carried = pos.labels[x]
        if not matchings_consistent(carried, answer):
            return G2Tag.PROVER_WINS, None
        new = dict(pos.labels)
        new[target] = carried.union(answer)
        return G2Tag.ONGOING, G2PrimePosition(new)

    back = x + (k - 1,)
    if k - 1 < 1 or back not in pos.labels:
        return G2Tag.PROVER_LOSES, None
    ext = [v for v in pos.dom if is_prefix(back, v)]
    landing_base = ext[-1]
    if tree.is_leaf(landing_base):
        return G2Tag.PROVER_LOSES, None
    carried = pos.labels[landing_base]
    if not matchings_consistent(carried, answer):
        return G2Tag.PROVER_WINS, None
    erased_prefix = x + (k,)
    new = {v: m for v, m in pos.labels.items() if not is_prefix(erased_prefix, v)}
    new[landing_base + (1,)] = carried.union(answer)
    return G2Tag.ONGOING, G2PrimePosition(new)


def g2prime_play(
    cfg_prime: LogPower,
    tree: TreeOracle,
    prover: G2PrimeStrategy,
    delayer: Callable[[G2PrimePosition, Query], Matching],
    step_cap: int = 100_000,
) -> tuple[str, int, list[G2PrimePosition]]:
    size = GameSize(cfg_prime.n)
    pos = G2PrimePosition({(): Matching()})
    trace = [pos]
    for step in range(1, step_cap + 1):
        v = pos.frontier
        q = prover.query(v, pos.labels[v])
        options = minimal_covers(q, None, size)
        if not options:
            return "prover", step, trace
        answer = delayer(pos, q)
        if answer not in options:
            raise MalformedMove(f"{answer} is not a minimal cover of {q}")
        mv = prover.move(v, pos.labels[v], answer)
        tag, nxt = g2prime_apply(pos, answer, mv, tree)
        if tag is G2Tag.PROVER_WINS:
            return "prover", step, trace
        if tag is G2Tag.PROVER_LOSES:
            return "delayer", step, trace
        assert nxt is not None
        pos = nxt
        trace.append(pos)
    raise ContractViolation(f"play exceeded step cap {step_cap}")


# ---------------------------------------------------------------------------
# The encoding.


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
        a, k = divmod(j - 1, self.cap + 1)
        k += 1
        return k, (a if a >= 1 else 1)

    def decode_raw(self, j: int) -> tuple[int, int]:
        a, k = divmod(j - 1, self.cap + 1)
        return k + 1, a

    def vertex_down(self, v_prime: Vertex) -> Vertex:
        return tuple(self.decode(j)[0] for j in v_prime)

    def aux_of(self, v_prime: Vertex) -> tuple[int, ...]:
        return tuple(self.decode(j)[1] for j in v_prime)


def required_prime_degree(cfg: LogPower, max_degree: int = 12) -> int:
    """The least exponent making the packed indices fit the new budget."""
    need = cfg.cap * (cfg.cap + 1) + cfg.cap
    for c2 in range(cfg.C, max_degree + 1):
        if need <= 2 ** (cfg.bitlen**c2):
            return c2
    raise ValueError(f"no admissible degree <= {max_degree} for {cfg}")


def to_g2prime(
    strategy: ObliviousStrategy,
    cfg: LogPower,
    tree: TreeOracle,
    max_degree: int = 12,
) -> tuple[LogPower, TreeOracle, G2PrimeStrategy, PrimeCodec]:
    """Translate an oblivious strategy to the aux-free game.

    The translated board contains a vertex exactly when its decoded index
    path lies on the original board (auxiliary parts are free).
    """
    c2 = required_prime_degree(cfg, max_degree)
    cfg_prime = LogPower(cfg.n, c2)
    codec = PrimeCodec(cfg.cap)

    def member(v_prime: Vertex) -> bool:
        ks = []
        for j in v_prime:
            k, a = codec.decode_raw(j)
            if not (1 <= k <= cfg.cap and 0 <= a <= cfg.cap):
                return False
            ks.append(k)
        return tuple(ks) in tree

    tree_prime = TreeOracle(member, tree.max_height, "g2prime")

    def query(v_prime: Vertex, m: Matching) -> Query:
        return strategy.query(codec.vertex_down(v_prime), m, codec.aux_of(v_prime))

    def move(v_prime: Vertex, m: Matching, answer: Matching) -> G2PrimeMove:
        mv = strategy.move(codec.vertex_down(v_prime), m, codec.aux_of(v_prime), answer)
        if mv.option == 1:
            return G2PrimeMove(1, codec.encode(mv.x, mv.b))  # type: ignore[arg-type]
        x: Vertex = mv.x  # type: ignore[assignment]
        return G2PrimeMove(mv.option, v_prime[: len(x)])

    return cfg_prime, tree_prime, G2PrimeStrategy(query, move), codec
