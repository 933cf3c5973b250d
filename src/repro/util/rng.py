"""Deterministic random-stream management.

Experiment campaigns span many chips, workload mixes, and policies; to keep
every figure reproducible (and every chip identical across the policies
being compared) each consumer derives its own independent stream from a
named key rather than sharing one global generator.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

KeyPart = Union[int, str]


def _key_to_ints(parts: Iterable[KeyPart]) -> list[int]:
    """Map a heterogeneous key tuple to a list of 32-bit ints."""
    out: list[int] = []
    for part in parts:
        if isinstance(part, bool):  # bool is an int subclass; reject it
            raise TypeError("boolean key parts are ambiguous; use int or str")
        if isinstance(part, int):
            out.append(part & 0xFFFFFFFF)
        elif isinstance(part, str):
            # Stable, platform-independent string hash (FNV-1a, 32 bit).
            acc = 2166136261
            for byte in part.encode("utf-8"):
                acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
            out.append(acc)
        else:
            raise TypeError(f"unsupported key part type: {type(part)!r}")
    return out


class SeedSequenceFactory:
    """Derive named, independent random generators from one root seed.

    Example::

        factory = SeedSequenceFactory(42)
        rng_a = factory.rng("variation", chip_index)
        rng_b = factory.rng("workload", "x264", 3)

    The same ``(root_seed, key...)`` always produces the same stream, and
    distinct keys produce statistically independent streams (via
    ``numpy.random.SeedSequence`` spawn keys).
    """

    def __init__(self, root_seed: int):
        if not isinstance(root_seed, (int, np.integer)) or isinstance(root_seed, bool):
            raise TypeError("root_seed must be an int")
        self._root_seed = int(root_seed)

    @property
    def root_seed(self) -> int:
        """The root seed this factory was created with."""
        return self._root_seed

    def seed_sequence(self, *key: KeyPart) -> np.random.SeedSequence:
        """Return the :class:`numpy.random.SeedSequence` for ``key``."""
        return np.random.SeedSequence(
            entropy=self._root_seed, spawn_key=tuple(_key_to_ints(key))
        )

    def rng(self, *key: KeyPart) -> np.random.Generator:
        """Return a fresh :class:`numpy.random.Generator` for ``key``."""
        return np.random.default_rng(self.seed_sequence(*key))

    def child(self, *key: KeyPart) -> "SeedSequenceFactory":
        """Return a factory whose streams are namespaced under ``key``."""
        sub_seed = int(self.seed_sequence(*key).generate_state(1)[0])
        return SeedSequenceFactory(sub_seed)
