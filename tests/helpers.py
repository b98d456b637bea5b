"""Helpers shared by more than one test module, each defined once here."""

import numpy as np

from qsteer.qobj import joint_distribution
from qsteer.steering import evaluate, overlap_bound


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def certify(alice_x, alice_z, bob_x, bob_z, alpha):
    """The criterion's violation on the Born-rule statistics of the maximally entangled state."""
    jx, jz = joint_distribution(alice_x, bob_x), joint_distribution(alice_z, bob_z)
    return evaluate(jx, jz, overlap_bound(bob_x, bob_z), alpha)
