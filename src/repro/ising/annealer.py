"""Simulated annealing: the classical heuristic for instances too large to
brute-force (used for the ``C_min`` estimates of the 500-qubit Sec. 6 study
and as a classical baseline in examples).

Single-spin-flip Metropolis dynamics over a geometric temperature schedule,
with incremental energy deltas so a sweep costs O(N + |J|) instead of a full
re-evaluation per flip.

Two engines implement the same dynamics:

* the **vectorized engine** (default, :mod:`repro.ising.annealer_batched`)
  runs every restart as a replica axis — and, through
  :func:`~repro.ising.annealer_batched.anneal_many`, every sibling
  Hamiltonian as a batch axis — with the per-site Metropolis updates done
  as array operations over a conflict-free color schedule;
* the **legacy scalar loop** (``vectorized=False``) is the original
  per-spin, per-sweep pure-Python reference implementation, kept
  bit-identical so seeded historical results (goldens, warm disk caches)
  stay reproducible.

The two engines draw randomness in different orders, so for the same seed
they return different (equally valid) results; cache keys carry the engine
tag (:func:`repro.cache.keys.anneal_key`) so neither can answer for the
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import HamiltonianError
from repro.ising.hamiltonian import IsingHamiltonian
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class AnnealResult:
    """Outcome of a simulated-annealing run.

    Attributes:
        value: Best cost found.
        spins: Best assignment found.
        num_sweeps: Sweeps performed.
        num_restarts: Independent restarts performed.
        num_replicas: Replicas actually run. Equal to ``num_restarts`` on
            both engines (the vectorized engine runs the restarts as a
            replica axis); 0 when rebuilt from a pre-provenance cache
            payload that predates the field.
        restart_values: Best energy each restart/replica reached on its
            own, best-first ordering NOT applied (index = replica index).
            Empty when rebuilt from a pre-provenance cache payload.
    """

    value: float
    spins: tuple[int, ...]
    num_sweeps: int
    num_restarts: int
    num_replicas: int = 0
    restart_values: tuple[float, ...] = field(default=())

    @property
    def restart_stats(self) -> dict[str, float]:
        """NaN-safe summary of the per-restart best energies.

        Non-finite entries (and an empty ``restart_values``, e.g. a result
        rebuilt from an old cache payload) are excluded; with nothing left
        every statistic is NaN rather than raising.
        """
        values = np.asarray(self.restart_values, dtype=float)
        finite = values[np.isfinite(values)] if values.size else values
        if finite.size == 0:
            nan = float("nan")
            return {"mean": nan, "std": nan, "min": nan, "max": nan}
        return {
            "mean": float(np.mean(finite)),
            "std": float(np.std(finite)),
            "min": float(np.min(finite)),
            "max": float(np.max(finite)),
        }


def _validate_anneal_args(
    num_qubits: int,
    num_sweeps: int,
    num_restarts: int,
    initial_temperature: float,
    final_temperature: float,
) -> None:
    """Shared argument validation of both engines (identical messages)."""
    if num_qubits == 0:
        raise HamiltonianError("cannot anneal a zero-qubit Hamiltonian")
    if num_sweeps < 1:
        raise HamiltonianError(f"num_sweeps must be >= 1, got {num_sweeps}")
    if num_restarts < 1:
        raise HamiltonianError(f"num_restarts must be >= 1, got {num_restarts}")
    if not 0.0 < final_temperature <= initial_temperature:
        raise HamiltonianError(
            "need 0 < final_temperature <= initial_temperature, got "
            f"{final_temperature} and {initial_temperature}"
        )


def _local_fields(
    hamiltonian: IsingHamiltonian, spins: np.ndarray
) -> np.ndarray:
    """Effective field on each spin: ``h_i + sum_j J_ij z_j``.

    Flipping spin i changes the energy by ``-2 z_i * field_i`` ... with the
    sign convention used below ``delta = -2 * z_i * field_i`` is the change
    from flipping, so we store the field and update it incrementally.
    """
    fields = hamiltonian.linear
    for (i, j), coupling in hamiltonian.quadratic.items():
        fields[i] += coupling * spins[j]
        fields[j] += coupling * spins[i]
    return fields


def _simulated_annealing_scalar(
    hamiltonian: IsingHamiltonian,
    num_sweeps: int,
    num_restarts: int,
    initial_temperature: float,
    final_temperature: float,
    seed: "int | np.random.Generator | None",
) -> AnnealResult:
    """The legacy per-spin, per-sweep reference loop.

    This is the original implementation, preserved flip-for-flip: every
    RNG draw (restart initialisation, per-sweep site permutation, per-flip
    uniforms) happens in the same order as before the vectorized engine
    existed, so seeded results are bit-identical to historical runs.
    """
    n = hamiltonian.num_qubits
    _validate_anneal_args(
        n, num_sweeps, num_restarts, initial_temperature, final_temperature
    )
    rng = ensure_rng(seed)
    adjacency: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for (i, j), coupling in hamiltonian.quadratic.items():
        adjacency[i].append((j, coupling))
        adjacency[j].append((i, coupling))
    cooling = (final_temperature / initial_temperature) ** (1.0 / max(num_sweeps - 1, 1))

    best_value = np.inf
    best_spins: np.ndarray | None = None
    restart_values: list[float] = []
    for __ in range(num_restarts):
        spins = rng.choice((-1.0, 1.0), size=n)
        fields = _local_fields(hamiltonian, spins)
        energy = hamiltonian.evaluate_many(spins[None, :])[0]
        temperature = initial_temperature
        restart_best = float(energy)
        if energy < best_value:
            best_value = energy
            best_spins = spins.copy()
        for __ in range(num_sweeps):
            order = rng.permutation(n)
            uniforms = rng.random(n)
            for step, site in enumerate(order):
                delta = -2.0 * spins[site] * fields[site]
                if delta <= 0.0 or uniforms[step] < np.exp(-delta / temperature):
                    spins[site] = -spins[site]
                    energy += delta
                    for neighbor, coupling in adjacency[site]:
                        fields[neighbor] += 2.0 * coupling * spins[site]
                    if energy < restart_best:
                        restart_best = float(energy)
                    if energy < best_value - 1e-12:
                        best_value = energy
                        best_spins = spins.copy()
            temperature *= cooling
        restart_values.append(restart_best)
    if best_spins is None:
        # NaN (or +inf) energies never compare lower, so no state was kept.
        raise HamiltonianError(
            "simulated annealing found no finite energy: the Hamiltonian's "
            "energy was non-finite (NaN or infinite coefficient)"
        )
    return AnnealResult(
        value=float(best_value),
        spins=tuple(int(s) for s in best_spins),
        num_sweeps=num_sweeps,
        num_restarts=num_restarts,
        num_replicas=num_restarts,
        restart_values=tuple(restart_values),
    )


def simulated_annealing(
    hamiltonian: IsingHamiltonian,
    num_sweeps: int = 500,
    num_restarts: int = 4,
    initial_temperature: float = 5.0,
    final_temperature: float = 0.01,
    seed: "int | np.random.Generator | None" = None,
    vectorized: bool = True,
) -> AnnealResult:
    """Minimise a Hamiltonian with restart simulated annealing.

    Args:
        hamiltonian: Problem to minimise.
        num_sweeps: Metropolis sweeps per restart (each sweep proposes one
            flip per spin).
        num_restarts: Independent restarts from random assignments.
        initial_temperature: Start of the geometric cooling schedule.
        final_temperature: End of the schedule; must be positive and below
            ``initial_temperature``.
        seed: RNG seed or generator.
        vectorized: Run through the batched replica engine (default) — the
            restarts become a replica axis and every Metropolis sweep is a
            handful of array operations. ``False`` pins the legacy scalar
            loop, bit-identical to historical seeded results. The two
            engines consume randomness differently, so the same seed gives
            different (equally valid) results on each.

    Returns:
        The best assignment over all restarts. On the vectorized engine the
        result is identical to the matching single-sibling row of
        :func:`~repro.ising.annealer_batched.anneal_many` — batching never
        changes what an individual instance returns.
    """
    if not vectorized:
        return _simulated_annealing_scalar(
            hamiltonian,
            num_sweeps,
            num_restarts,
            initial_temperature,
            final_temperature,
            seed,
        )
    from repro.ising.annealer_batched import anneal_many

    return anneal_many(
        [hamiltonian],
        num_sweeps=num_sweeps,
        num_restarts=num_restarts,
        initial_temperature=initial_temperature,
        final_temperature=final_temperature,
        seeds=[seed],
    )[0]
