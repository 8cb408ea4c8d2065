"""Integer-exact token bucket for router ingress throttling.

The bucket is kept in *token-nanoseconds*: the fill level is an integer
number of nanoseconds of accumulated credit, one admitted fragment
costs ``token_ns`` of it, and the level refills linearly with simulated
time up to ``burst * token_ns``.  Working in ns keeps every operation
exact integer arithmetic — no float drift, so two same-seed runs make
bit-identical admit/defer decisions, which the scenario replay digests
depend on.
"""

from __future__ import annotations

__all__ = ["TokenBucket"]


class TokenBucket:
    """Deterministic token bucket (integer token-ns accounting)."""

    def __init__(self, token_ns: int, burst: int, now: int = 0):
        if token_ns < 1:
            raise ValueError("token interval must be >= 1 ns")
        if burst < 1:
            raise ValueError("burst must be >= 1 token")
        self.token_ns = token_ns
        self.cap_ns = burst * token_ns
        #: start full: the first burst after quiet is always admitted
        self.level_ns = self.cap_ns
        self._stamp = now

    def _refill(self, now: int) -> None:
        if now > self._stamp:
            self.level_ns = min(self.cap_ns,
                                self.level_ns + (now - self._stamp))
            self._stamp = now

    def try_take(self, now: int) -> bool:
        """Spend one token if available."""
        self._refill(now)
        if self.level_ns >= self.token_ns:
            self.level_ns -= self.token_ns
            return True
        return False

    def delay_until_ready(self, now: int) -> int:
        """Nanoseconds until one token is available (0 = ready now)."""
        self._refill(now)
        return max(0, self.token_ns - self.level_ns)

    def reset(self, now: int) -> None:
        """Cold restart: full bucket, clock re-anchored."""
        self.level_ns = self.cap_ns
        self._stamp = now
