"""The scalar splitmix64 generator that synth.generate replaced by drawing
by stream position, kept as a test oracle: one call per draw, the
reference for every draw, normal and unit vector the generator computes
in blocks."""

import math

import numpy as np

from macsort.synth import _GAMMA, _MASK64, _mix


class SplitMix64:
    """splitmix64 PRNG; one 64-bit state, portable across languages."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return _mix(self.state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        # Box-Muller, one value per two uniforms (kept simple over fast)
        u1 = max(self.uniform(), 2.0**-53)
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def unit_vector(self, dim: int) -> np.ndarray:
        vec = np.array([self.normal() for _ in range(dim)])
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            vec = np.zeros(dim)
            vec[0] = 1.0
            return vec
        return vec / norm
