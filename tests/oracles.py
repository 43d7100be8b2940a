"""Independent references for catsim's engines and its parity round.

The lab-frame RK4 references share no code with the engines: they step
H(t) = ``ham.matrix(t)`` directly, with no frame, no block structure and
no sector split, so they check the derivation of all three.  Their only
error is RK4's own, which falls 16-fold per halving of the step.

``oracle_round`` builds a map-plus-readout round from public pieces only,
and reads out with one stream call per draw, so it checks the batched
round's shortcuts: its unchecked rows, cached tables and paired draws.
"""

import math

import numpy as np

from catsim.dynamics import run_trajectories
from catsim.model import (
    DriveSpec,
    build_hamiltonian,
    cancellation_detuning,
    collapse_channels,
)
from catsim.protocols import ancilla_rotation, map_duration

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
    scale = float(np.max(np.abs(ham.diagonal)))
    if ham.drive is not None:
        _, _, coupling, freq = ham.drive
        scale += 2.0 * float(np.max(np.abs(coupling), initial=0.0)) + TWO_PI * abs(freq)
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


def _pick(cdf, u):
    """Index u selects from each row of running sums, clamped to the last."""
    return np.minimum(np.sum(cdf <= u[:, None], axis=1), cdf.shape[1] - 1)


def oracle_round(stack, params, protocol, basis, streams, drive_mode):
    """One parity round of a (rows, 4, dim) stack: the reset stack, true and reported levels.

    The wait runs ``run_trajectories`` between the pulses of
    ``ancilla_rotation``, ft at the ``zero_chi_fe`` drive.  The readout
    runs it for ``t_ro`` undriven, then draws the level and the label by
    two calls of ``streams.uniforms()``, from running sums over each
    row's total, and derotates the cavity by the reported level's pull.
    """
    opening = ancilla_rotation("ge_half")
    if protocol != "ge":
        opening = ancilla_rotation("ef_full") @ opening
    if protocol == "ft":
        drive = DriveSpec(params.omega_sb, cancellation_detuning(params, "zero_chi_fe"))
        ham = build_hamiltonian(params, basis, mode=drive_mode, drive=drive)
        channels = collapse_channels(params, basis, drive_on=True)
    else:
        ham, channels = build_hamiltonian(params, basis), collapse_channels(params, basis)
    rows, dim = len(stack), basis.dim
    flat, _ = run_trajectories((opening @ stack).reshape(rows, -1), ham, channels,
                               map_duration(params, protocol), streams)
    flat = (opening.conj().T @ flat.reshape(rows, 4, dim)).reshape(rows, -1)
    flat, _ = run_trajectories(flat, build_hamiltonian(params, basis),
                               collapse_channels(params, basis), params.t_ro, streams)
    block = flat.reshape(rows, 4, dim)
    pops = np.sum(np.abs(block) ** 2, axis=2)
    level = _pick(np.cumsum(pops, axis=1) / pops.sum(axis=1, keepdims=True), streams.uniforms())
    cavity = block[np.arange(rows), level]
    cavity /= np.linalg.norm(cavity, axis=1, keepdims=True)
    truth = np.minimum(level, 2)
    confusion = np.cumsum(np.array(params.assignment_error), axis=1)
    reported = _pick(confusion[truth], streams.uniforms())
    pull = np.array([0.0, params.chi_e, params.chi_f])[reported]
    cavity *= np.exp(2j * math.pi * pull[:, None] * np.arange(dim) * params.t_ro)
    out = np.zeros_like(block)
    out[:, 0] = cavity
    return out, truth, reported
