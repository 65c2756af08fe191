"""Fixture: unseeded randomness (DBP001).  Linted as an engine module."""

import random
import numpy as np
from random import shuffle  # DBP001: binds the global RNG

SEED = 7


def bad_global_draw():
    return random.random()  # DBP001: global RNG call


def bad_seedless_ctor():
    return random.Random()  # DBP001: no seed


def bad_numpy_legacy():
    return np.random.rand(3)  # DBP001: numpy global RNG


def bad_numpy_default_rng():
    return np.random.default_rng()  # DBP001: no seed


def bad_system_random():
    return random.SystemRandom(SEED).random()  # DBP001: SystemRandom ignores its seed


def good_seeded_ctor():
    return random.Random(SEED)


def good_seeded_numpy():
    return np.random.default_rng(SEED)


def good_threaded(rng: random.Random):
    return rng.random()
