"""Seeding: stability of named streams, derivation, string hashing."""

import numpy as np
import pytest

from foleyflow.rng import SeededRng, derive_seed, string_seed

# frozen oracle values: Philox and SeedSequence are documented as
# platform-stable, so these exact outputs must never change
FROZEN_NORMAL_SEED0 = -0.2059740286292238
FROZEN_DERIVED = 10064481071208559160


def test_same_seed_same_stream():
    a = SeededRng(123)
    b = SeededRng(123)
    assert a.normal((4,)).tolist() == b.normal((4,)).tolist()
    assert a.uniform() == b.uniform()
    assert a.integers(1000) == b.integers(1000)


def test_different_seeds_differ():
    assert SeededRng(1).normal((8,)).tolist() != SeededRng(2).normal((8,)).tolist()


def test_frozen_first_draw():
    # pins the generator identity: a silent swap of the bit generator
    # or draw order would move this value
    assert SeededRng(0).normal((1,))[0] == FROZEN_NORMAL_SEED0


def test_scalar_draws_are_python_types():
    rng = SeededRng(5)
    assert isinstance(rng.uniform(), float)
    assert isinstance(rng.bernoulli(0.5), bool)
    assert isinstance(rng.integers(10), int)


def test_shaped_draws():
    # normal draws arrays only; uniform, bernoulli and integers one value only
    rng = SeededRng(5)
    assert rng.normal((2, 3)).shape == (2, 3)
    assert rng.normal((1,)).shape == (1,)
    for draw, args in ((rng.normal, ()), (rng.uniform, ((4,),)), (rng.bernoulli, (0.5, (6,))), (rng.integers, (10, (5,)))):
        with pytest.raises(TypeError):
            draw(*args)


def test_uniform_bounds():
    rng = SeededRng(9)
    draws = np.array([rng.uniform() for _ in range(1000)])
    assert np.all((draws >= 0.0) & (draws < 1.0))


def test_integers_bounds():
    rng = SeededRng(9)
    draws = [rng.integers(7) for _ in range(1000)]
    assert min(draws) == 0 and max(draws) == 6


def test_bernoulli_extremes():
    rng = SeededRng(11)
    assert not any(rng.bernoulli(0.0) for _ in range(50))
    assert all(rng.bernoulli(1.0) for _ in range(50))


def test_derive_seed_deterministic_and_sensitive():
    assert derive_seed(0, "stage", 1) == FROZEN_DERIVED
    assert derive_seed(0, "stage", 2) != FROZEN_DERIVED
    assert derive_seed(1, "stage", 1) != FROZEN_DERIVED
    assert derive_seed(0, "phase", 1) != FROZEN_DERIVED


def test_derive_seed_key_order_matters():
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)


def test_derived_streams_are_independent():
    a = SeededRng(derive_seed(7, "a")).normal((16,))
    b = SeededRng(derive_seed(7, "b")).normal((16,))
    assert not np.allclose(a, b)


def test_string_seed_stable_and_distinct():
    assert string_seed("hello") == string_seed("hello")
    assert string_seed("hello") != string_seed("hellp")
    assert 0 <= string_seed("anything") < 2**64
