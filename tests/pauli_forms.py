"""Analytic Pauli-basis forms of the fermionic density matrices.

Transcriptions of the closed-form decompositions that the wedge-traced
GHZ/W pipeline must reproduce elementwise; used as fixtures only.  The
Pauli matrices and the complex Kronecker product they are written in are
defined here too.
"""

import math

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
I2, SX, SY, SZ = IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z


def kron(a, b):
    """Complex Kronecker product with the left operand most significant."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def k3(a, b, c):
    return kron(kron(a, b), c)


def k2(a, b):
    return kron(a, b)


def ghz_minkowski():
    return (
        k3(SX, SX, SX) - k3(SX, SY, SY) - k3(SY, SX, SY) - k3(SY, SY, SX)
        + k3(SZ, SZ, I2) + k3(SZ, I2, SZ) + k3(I2, SZ, SZ) + k3(I2, I2, I2)
    ) / 8.0


def ghz_rindler(u1, u2):
    c1, c2 = math.cos(u1), math.cos(u2)
    s1, s2 = math.sin(u1), math.sin(u2)
    cc = math.cos(2 * u1) * math.cos(2 * u2)
    return (
        c1 * c2 * (k3(SX, SX, SX) - k3(SX, SY, SY) - k3(SY, SX, SY) - k3(SY, SY, SX))
        + 0.5 * (cc - 1) * k3(SZ, SZ, SZ)
        + c1**2 * k3(SZ, SZ, I2)
        + c2**2 * k3(SZ, I2, SZ)
        + 0.5 * (cc + 1) * k3(I2, SZ, SZ)
        - s1**2 * k3(I2, SZ, I2)
        - s2**2 * k3(I2, I2, SZ)
        + k3(I2, I2, I2)
    ) / 8.0


def ghz_rindler_pt(target, u1, u2):
    """Partial transpose of the traced GHZ matrix: the y-type terms with
    the target slot transposed flip sign."""
    c1c2 = math.cos(u1) * math.cos(u2)
    base = ghz_rindler(u1, u2) - c1c2 * (
        -k3(SX, SY, SY) - k3(SY, SX, SY) - k3(SY, SY, SX)
    ) / 8.0
    signs = {
        "A": (+1, -1, -1),
        "I": (-1, +1, -1),
        "I'": (-1, -1, +1),
    }[target]
    extra = signs[0] * k3(SX, SY, SY) + signs[1] * k3(SY, SX, SY) + signs[2] * k3(SY, SY, SX)
    return base - c1c2 * extra / 8.0


def w_minkowski():
    return (
        2 * (
            k3(SX, SX, SZ) + k3(SY, SY, SZ) + k3(SX, SZ, SX) + k3(SY, SZ, SY)
            + k3(SZ, SX, SX) + k3(SZ, SY, SY)
            + k3(SX, I2, SX) + k3(SX, SX, I2) + k3(SY, SY, I2)
            + k3(SY, I2, SY) + k3(I2, SX, SX) + k3(I2, SY, SY)
        )
        - 3 * k3(SZ, SZ, SZ)
        - k3(SZ, I2, SZ) - k3(I2, SZ, SZ) - k3(SZ, SZ, I2)
        + k3(SZ, I2, I2) + k3(I2, SZ, I2) + k3(I2, I2, SZ)
        + 3 * k3(I2, I2, I2)
    ) / 24.0


def w_rindler(u1, u2):
    c1, c2 = math.cos(u1), math.cos(u2)
    d1, d2 = math.cos(2 * u1), math.cos(2 * u2)
    return (
        2 * c1 * d2 * (k3(SX, SX, SZ) + k3(SY, SY, SZ))
        + 2 * c2 * (k3(SX, I2, SX) + k3(SY, I2, SY))
        + 2 * c1 * (k3(SX, SX, I2) + k3(SY, SY, I2))
        + 2 * d1 * c2 * (k3(SX, SZ, SX) + k3(SY, SZ, SY))
        + 2 * c1 * c2 * (k3(SZ, SX, SX) + k3(SZ, SY, SY) + k3(I2, SX, SX) + k3(I2, SY, SY))
        - (d1 * d2 + d1 + d2) * k3(SZ, SZ, SZ)
        - k3(SZ, SZ, I2) - k3(SZ, I2, SZ) + k3(SZ, I2, I2)
        + (d1 * d2 - d1 - d2) * k3(I2, SZ, SZ)
        + (2 * d1 - 1) * k3(I2, SZ, I2)
        + (2 * d2 - 1) * k3(I2, I2, SZ)
        + 3 * k3(I2, I2, I2)
    ) / 24.0


def w_reduced_rs(u1, u2):
    c1, c2 = math.cos(u1), math.cos(u2)
    d1, d2 = math.cos(2 * u1), math.cos(2 * u2)
    return (
        2 * c1 * c2 * (k2(SX, SX) + k2(SY, SY))
        + (d1 * d2 - d1 - d2) * k2(SZ, SZ)
        + (2 * d1 - 1) * k2(SZ, I2)
        + (2 * d2 - 1) * k2(I2, SZ)
        + 3 * k2(I2, I2)
    ) / 12.0


def w_reduced_ar(u1, u2):
    c1, d1 = math.cos(u1), math.cos(2 * u1)
    return (
        2 * c1 * (k2(SX, SX) + k2(SY, SY))
        - k2(SZ, SZ) + k2(SZ, I2)
        + (2 * d1 - 1) * k2(I2, SZ)
        + 3 * k2(I2, I2)
    ) / 12.0


def w_reduced_as(u1, u2):
    c2, d2 = math.cos(u2), math.cos(2 * u2)
    return (
        2 * c2 * (k2(SX, SX) + k2(SY, SY))
        - k2(SZ, SZ) + k2(SZ, I2)
        + (2 * d2 - 1) * k2(I2, SZ)
        + 3 * k2(I2, I2)
    ) / 12.0
