"""Cache replacement policies.

The paper's baseline system (Table II) uses SRRIP at the L2 and DRRIP at
the LLC; the L1D uses LRU, and the Berti hardware tables use FIFO.  All
policies share a small per-set interface so :class:`repro.memory.cache.Cache`
can be configured with any of them.

A policy instance manages *one* cache (all sets).  The cache calls:

* :meth:`ReplacementPolicy.on_fill` when a line is installed,
* :meth:`ReplacementPolicy.on_hit` on a demand/prefetch hit,
* :meth:`ReplacementPolicy.victim` to pick the way to evict among the valid
  ways of a full set.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from array import array


class ReplacementPolicy(ABC):
    """Interface for per-set replacement state."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        self.num_sets = num_sets
        self.num_ways = num_ways

    @abstractmethod
    def on_fill(self, set_index: int, way: int) -> None:
        """Record that ``way`` of ``set_index`` was just filled."""

    @abstractmethod
    def on_hit(self, set_index: int, way: int) -> None:
        """Record a hit on ``way`` of ``set_index``."""

    @abstractmethod
    def victim(self, set_index: int) -> int:
        """Return the way to evict in a full set."""


class LRUPolicy(ReplacementPolicy):
    """Classic least-recently-used, tracked with per-set clock stamps.

    ``_age`` is a flat column indexed by slot ``set * ways + way``
    (higher means more recently used); ``_clock`` holds one stamp
    counter per set.
    """

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._age = array("q", bytes(8 * num_sets * num_ways))
        self._clock = array("q", bytes(8 * num_sets))

    def on_fill(self, set_index: int, way: int) -> None:
        clock = self._clock[set_index] + 1
        self._clock[set_index] = clock
        self._age[set_index * self.num_ways + way] = clock

    on_hit = on_fill

    def victim(self, set_index: int) -> int:
        # index(min(...)) runs both steps at C speed and picks the same
        # (first) minimal way as a keyed min over way indices.
        base = set_index * self.num_ways
        ages = self._age[base:base + self.num_ways]
        return ages.index(min(ages))


class FIFOPolicy(LRUPolicy):
    """First-in-first-out: evict the oldest *fill*, ignore hits.

    This is the policy the Berti hardware tables use.
    """

    def on_hit(self, set_index: int, way: int) -> None:
        # FIFO ignores reuse.
        pass


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (seeded for reproducibility)."""

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, num_ways)
        self._rng = random.Random(seed)

    def on_fill(self, set_index: int, way: int) -> None:
        pass

    def on_hit(self, set_index: int, way: int) -> None:
        pass

    def victim(self, set_index: int) -> int:
        return self._rng.randrange(self.num_ways)


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (Jaleel et al., ISCA 2010).

    2-bit re-reference prediction values (RRPV).  Fills insert with RRPV
    ``max-1`` (long re-reference), hits promote to 0, victims are lines with
    RRPV == max (aging the set until one exists).
    """

    MAX_RRPV = 3

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        # Flat per-slot column (``set * ways + way``), like LRU's ages.
        self._rrpv = array("q", [self.MAX_RRPV]) * (num_sets * num_ways)

    def insertion_rrpv(self, set_index: int) -> int:
        return self.MAX_RRPV - 1

    def on_fill(self, set_index: int, way: int) -> None:
        self._rrpv[set_index * self.num_ways + way] = (
            self.insertion_rrpv(set_index)
        )

    def on_hit(self, set_index: int, way: int) -> None:
        self._rrpv[set_index * self.num_ways + way] = 0

    def victim(self, set_index: int) -> int:
        rrpvs = self._rrpv
        base = set_index * self.num_ways
        end = base + self.num_ways
        while True:
            # array.index finds the same first way at RRPV max as the
            # way-order scan, at C speed; misses dominate eviction, so
            # the aging pass (no candidate yet) is the rare branch.
            try:
                return rrpvs.index(self.MAX_RRPV, base, end) - base
            except ValueError:
                for slot in range(base, end):
                    rrpvs[slot] += 1


class DRRIPPolicy(SRRIPPolicy):
    """Dynamic RRIP: set-duelling between SRRIP and bimodal insertion.

    A few leader sets always use SRRIP insertion, a few always use BRRIP
    (insert at distant re-reference with high probability); a saturating
    PSEL counter selects the winner for follower sets.
    """

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, num_ways)
        self._psel = 512          # 10-bit saturating counter, midpoint
        self._psel_max = 1023
        self._rng = random.Random(seed)
        # Leader sets: every 32nd set alternates between the two teams.
        self._srrip_leaders = {s for s in range(0, num_sets, 32)}
        self._brrip_leaders = {s for s in range(16, num_sets, 32)}

    def _use_brrip(self, set_index: int) -> bool:
        if set_index in self._srrip_leaders:
            return False
        if set_index in self._brrip_leaders:
            return True
        return self._psel > self._psel_max // 2

    def insertion_rrpv(self, set_index: int) -> int:
        if self._use_brrip(set_index):
            # BRRIP: mostly distant (MAX), occasionally long (MAX-1).
            if self._rng.random() < 1.0 / 32.0:
                return self.MAX_RRPV - 1
            return self.MAX_RRPV
        return self.MAX_RRPV - 1

    def record_miss(self, set_index: int) -> None:
        """Update the duelling counter on a miss to a leader set."""
        if set_index in self._srrip_leaders and self._psel < self._psel_max:
            self._psel += 1
        elif set_index in self._brrip_leaders and self._psel > 0:
            self._psel -= 1


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
    "srrip": SRRIPPolicy,
    "drrip": DRRIPPolicy,
}


def make_policy(name: str, num_sets: int, num_ways: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (lru/fifo/random/srrip/drrip)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(_POLICIES)}"
        ) from None
    return cls(num_sets, num_ways)
