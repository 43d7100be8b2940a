"""Lab-frame RK4 references that share no code with catsim's engines.

They step the lab-frame H(t) = ``ham.matrix(t)`` directly, with no frame,
no block structure and no sector split, so they check the derivation of
all three.  Their only error is RK4's own, which falls 16-fold per
halving of the step.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def rk4_lab(rhs, y, t, duration, steps):
    """Classic RK4 of y' = rhs(y, t) from t through ``duration`` in equal steps."""
    dt = duration / steps
    for _ in range(steps):
        k1 = rhs(y, t)
        k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(y + dt * k3, t + dt)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return y


def rk4_unitary(psi, ham, duration, t0):
    """Lab-frame RK4 of i psi' = H(t) psi, 50 steps per period of the fastest rate."""
    scale = float(np.max(np.abs(ham.static)))
    for op, freq in ham.periodic:
        scale += 2.0 * float(np.max(np.sum(np.abs(op), axis=1))) + TWO_PI * abs(freq)
    dt = min(duration / 10.0, 1.0 / (50.0 * scale / TWO_PI))
    steps = max(1, math.ceil(duration / dt))
    psi = rk4_lab(lambda vec, t: -1j * (ham.matrix(t) @ vec), psi, t0, duration, steps)
    return psi / np.linalg.norm(psi)


def rk4_lindblad(psi, ham, channels, duration, dt):
    """Lab-frame RK4 of the Lindblad equation with H(t) = ham.matrix(t), from t = 0."""
    ops = [chan.operator for chan in channels]
    pairs = [(op, op.conj().T, op.conj().T @ op) for op in ops]

    def rhs(rho, t):
        h = ham.matrix(t)
        out = -1j * (h @ rho - rho @ h)
        for op, dag, ldl in pairs:
            out += op @ rho @ dag - 0.5 * (ldl @ rho + rho @ ldl)
        return out

    return rk4_lab(rhs, np.outer(psi, psi.conj()), 0.0, duration, round(duration / dt))
