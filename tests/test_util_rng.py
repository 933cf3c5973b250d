"""Deterministic seeded stream derivation."""

import numpy as np
import pytest

from repro.util.rng import SeedSequenceFactory


def test_same_key_same_stream():
    a = SeedSequenceFactory(7).rng("variation", 3).random(5)
    b = SeedSequenceFactory(7).rng("variation", 3).random(5)
    np.testing.assert_array_equal(a, b)


def test_different_keys_differ():
    a = SeedSequenceFactory(7).rng("variation", 3).random(5)
    b = SeedSequenceFactory(7).rng("variation", 4).random(5)
    assert not np.array_equal(a, b)


def test_different_root_seeds_differ():
    a = SeedSequenceFactory(7).rng("x").random(5)
    b = SeedSequenceFactory(8).rng("x").random(5)
    assert not np.array_equal(a, b)


def test_string_and_int_keys_mix():
    rng = SeedSequenceFactory(0).rng("chip", 12, "workload")
    assert isinstance(rng, np.random.Generator)


def test_string_key_is_stable_across_processes():
    # FNV-1a hashing must not depend on PYTHONHASHSEED: the derived
    # state for a given string key is a fixed constant.
    state_a = SeedSequenceFactory(1).seed_sequence("abc").generate_state(1)[0]
    state_b = SeedSequenceFactory(1).seed_sequence("abc").generate_state(1)[0]
    assert state_a == state_b


def test_child_factory_namespaces():
    root = SeedSequenceFactory(42)
    child = root.child("campaign")
    a = child.rng("chip", 0).random(3)
    b = root.rng("chip", 0).random(3)
    assert not np.array_equal(a, b)


def test_bool_key_rejected():
    with pytest.raises(TypeError):
        SeedSequenceFactory(1).rng(True)


def test_bool_root_seed_rejected():
    with pytest.raises(TypeError):
        SeedSequenceFactory(True)


def test_float_key_rejected():
    with pytest.raises(TypeError):
        SeedSequenceFactory(1).rng(1.5)
