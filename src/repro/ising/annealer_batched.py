"""The batched multi-replica annealing engine (vectorized Metropolis core).

FrozenQubits makes classical annealing *embarrassingly batchable*: all
``2**m`` sibling sub-problems share one coupling graph — freezing hotspots
only reshapes the linear coefficients and the offset — so the planner's
probes, the solver's budget fallbacks, and the suite-level ``C_min``
estimates all anneal families of Hamiltonians that differ in ``h`` alone.
This module runs those families in one pass:

* an :class:`AnnealStructure` is precomputed **once per coupling topology**
  (CSR-style neighbor arrays plus a greedy graph coloring) and memoized
  process-wide, so repeated probe passes over the same fan-out never
  rebuild it;
* :func:`anneal_many` runs all restarts as a **replica axis** and all
  sibling Hamiltonians as a **batch axis**. Sweeps are site-sequential at
  the granularity of color classes: sites within a class share no coupling,
  so updating them together is *exactly* equivalent to visiting them one
  after another — per-replica Metropolis semantics (each flip sees every
  earlier flip's updated local field) are preserved, while each update step
  is a handful of array operations over ``sites x siblings x replicas``;
* a **mixed batch sweeps as a few disjoint-union programs**, not one loop
  per topology: topology groups with the same number of members are laid
  side by side on one site axis (each group keeps its own coloring, block
  order and edge order), so per-sweep Python work grows with the number of
  distinct group sizes. A recursive solve's budget-cut nodes span dozens
  of mostly single-member topologies but only a handful of sizes;
* local fields are maintained **incrementally** (scatter-add of the flipped
  spins' coupling contributions), so a sweep costs O(N + |J|) work per
  replica just like the scalar loop — but as a few vectorized passes
  instead of N Python iterations. Energies are **segment sums over each
  group's own run of sites**, so their summation order never depends on
  what else shares the batch.

Seeding contract (what makes batched results cacheable per sibling):

* every sibling ``b`` owns an independent generator derived from
  ``seeds[b]`` — no RNG state is ever shared across siblings;
* a sibling's draw order is fixed: first the initial spins of all replicas
  (one ``choice((-1, +1), size=(num_restarts, n))``), then one uniform
  block ``random((num_restarts, n))`` per sweep — drawn a bounded chunk of
  sweeps at a time, ``random((chunk, num_restarts, n))``, which is the
  same stream;
* replicas are therefore slices of their sibling's stream, and a sibling's
  result depends only on its own ``(hamiltonian, parameters, seed)`` —
  **never on the batch composition**. ``anneal_many([h], seeds=[s])[0]``
  is bit-identical to the same sibling inside any larger batch, real-valued
  weights included, which is what lets
  :func:`repro.cache.memo.cached_anneal_many` answer per-sibling hits
  individually and run only the misses. (Passing one generator object for
  two siblings shares its state between them and voids this.)
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import HamiltonianError
from repro.ising.annealer import AnnealResult, _validate_anneal_args
from repro.ising.hamiltonian import IsingHamiltonian
from repro.utils.memo import BoundedMemo
from repro.utils.rng import ensure_rng

#: Strict-improvement margin for best-so-far tracking (matches the legacy
#: scalar loop's tolerance).
_IMPROVEMENT_MARGIN = 1e-12


@dataclass(frozen=True)
class _ColorBlock:
    """One conflict-free update step of a sweep.

    The outgoing directed edges are stored sorted by destination, with
    segment boundaries, so the incremental field update is a contiguous
    ``reduceat`` segment-sum plus one duplicate-free fancy add — much
    faster than a general ``ufunc.at`` scatter.

    Attributes:
        sites: Site indices of this color class (mutually non-adjacent).
        source_positions: For each outgoing directed edge of the class (in
            destination-sorted order), the source site's position within
            ``sites``.
        edge_indices: The directed edges' positions in the owning
            structure's (or union layout's) directed-edge arrays
            (destination-sorted; used to gather per-sibling weights).
        unique_destinations: Distinct destination sites, ascending.
        segment_starts: Start offset of each destination's edge run.
    """

    sites: np.ndarray
    source_positions: np.ndarray
    edge_indices: np.ndarray
    unique_destinations: np.ndarray
    segment_starts: np.ndarray


class AnnealStructure:
    """Precomputed neighbor structure of one coupling topology.

    Built from the *pairs* of a Hamiltonian's quadratic terms only — not
    the coefficient values — so every sibling of a FrozenQubits fan-out
    (and every instance of a sweep that shares a graph) reuses one
    structure. Holds the sorted pair array, the directed-edge CSR-style
    arrays, and a greedy coloring partitioning the sites into
    conflict-free update blocks.
    """

    def __init__(self, num_qubits: int, pairs: np.ndarray) -> None:
        self.num_qubits = int(num_qubits)
        self.pairs = pairs  # (nnz, 2), int64, lexicographically sorted
        nnz = len(pairs)
        if nnz:
            self.src = np.concatenate([pairs[:, 0], pairs[:, 1]])
            self.dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        else:
            self.src = np.zeros(0, dtype=np.int64)
            self.dst = np.zeros(0, dtype=np.int64)
        self.blocks = self._color_blocks()

    @classmethod
    def for_hamiltonian(cls, hamiltonian: IsingHamiltonian) -> "AnnealStructure":
        """The (memoized) structure of a Hamiltonian's coupling graph."""
        pairs = _pair_array(hamiltonian)
        return _memoized_structure(hamiltonian.num_qubits, pairs)

    @property
    def num_colors(self) -> int:
        """Number of conflict-free blocks a sweep is split into."""
        return len(self.blocks)

    def directed_weights(self, hamiltonians: "Sequence[IsingHamiltonian]") -> np.ndarray:
        """Per-sibling coupling values aligned with the directed edges.

        Returns shape ``(len(hamiltonians), 2 * nnz)`` — each row is the
        sibling's J values repeated for both edge directions. Raises when a
        sibling's quadratic support does not match this structure.
        """
        rows = []
        for hamiltonian in hamiltonians:
            quadratic = hamiltonian.quadratic
            if len(quadratic) != len(self.pairs):
                raise HamiltonianError(
                    "hamiltonian does not match the anneal structure: "
                    f"{len(quadratic)} terms vs {len(self.pairs)} pairs"
                )
            try:
                values = np.array(
                    [quadratic[(int(i), int(j))] for i, j in self.pairs],
                    dtype=float,
                )
            except KeyError as exc:
                raise HamiltonianError(
                    f"hamiltonian quadratic support does not match the "
                    f"anneal structure: missing pair {exc}"
                ) from exc
            rows.append(np.concatenate([values, values]))
        return (
            np.asarray(rows, dtype=float)
            if rows
            else np.zeros((0, 2 * len(self.pairs)))
        )

    def _color_blocks(self) -> list[_ColorBlock]:
        """Greedy coloring (highest degree first) into conflict-free blocks.

        Within a block no two sites share a coupling, so a block's flips
        cannot change each other's local fields — sequential and
        simultaneous updates coincide exactly.
        """
        n = self.num_qubits
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.pairs:
            neighbors[int(i)].append(int(j))
            neighbors[int(j)].append(int(i))
        order = sorted(range(n), key=lambda i: (-len(neighbors[i]), i))
        colors = np.full(n, -1, dtype=np.int64)
        for site in order:
            used = {colors[j] for j in neighbors[site] if colors[j] >= 0}
            color = 0
            while color in used:
                color += 1
            colors[site] = color
        blocks = []
        for color in range(int(colors.max()) + 1 if n else 0):
            sites = np.where(colors == color)[0]
            if self.src.size:
                edge_indices = np.where(np.isin(self.src, sites))[0]
            else:
                edge_indices = np.zeros(0, dtype=np.int64)
            destinations = self.dst[edge_indices]
            order = np.argsort(destinations, kind="stable")
            edge_indices = edge_indices[order]
            destinations = destinations[order]
            unique_destinations, segment_starts = (
                np.unique(destinations, return_index=True)
                if destinations.size
                else (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
            )
            blocks.append(
                _ColorBlock(
                    sites=sites,
                    source_positions=np.searchsorted(
                        sites, self.src[edge_indices]
                    ),
                    edge_indices=edge_indices,
                    unique_destinations=unique_destinations,
                    segment_starts=segment_starts,
                )
            )
        return blocks


def _pair_array(hamiltonian: IsingHamiltonian) -> np.ndarray:
    pairs = sorted(hamiltonian.quadratic.keys())
    return (
        np.asarray(pairs, dtype=np.int64)
        if pairs
        else np.zeros((0, 2), dtype=np.int64)
    )


#: Process-wide structure memo: coupling-topology key -> AnnealStructure.
#: Bounded so a sweep over many distinct graphs cannot accumulate
#: unbounded index arrays.
_STRUCTURE_MEMO: "BoundedMemo[AnnealStructure]" = BoundedMemo(max_entries=32)


def _memoized_structure(num_qubits: int, pairs: np.ndarray) -> AnnealStructure:
    return _STRUCTURE_MEMO.get_or_build(
        (int(num_qubits), pairs.tobytes()),
        lambda: AnnealStructure(num_qubits, pairs),
    )


#: Sweeps whose uniforms each sibling draws in one call, and the buffer
#: size (float64 elements, 8 MiB) that caps the chunk on very large
#: buckets. The chunk only sets how the stream is drawn, never its values.
_UNIFORM_CHUNK = 16
_UNIFORM_BUFFER = 1 << 20


def _run_starts(counts) -> np.ndarray:
    """Start offset of each run when runs of ``counts`` are laid end to end."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.cumsum(counts) - counts


class _UnionLayout:
    """The disjoint union of the topology groups that share one batch size.

    Group ``g`` owns the site run ``rows[g]`` and its directed edges keep
    their own order, offset into one concatenated edge array. Union color
    block ``c`` is every group's own color-``c`` block, concatenated in
    group order, so each group keeps its coloring and block order and each
    destination keeps its contribution order — a group sweeps exactly as it
    would alone. Groups are ordered by descending color count, so the
    groups present in block ``c`` are the prefix ``0:run_counts[c]``, whose
    runs within the block's sites start at ``run_starts[c]``.
    """

    def __init__(self, structures: "Sequence[AnnealStructure]") -> None:
        """``structures``: the bucket's groups, by descending color count."""
        self.structures = list(structures)
        self.sizes = np.array([s.num_qubits for s in structures], dtype=np.int64)
        self.starts = _run_starts(self.sizes)
        self.rows = [
            slice(int(start), int(start + size))
            for start, size in zip(self.starts, self.sizes)
        ]
        self.num_sites = int(self.sizes.sum())
        edge_starts = _run_starts([s.src.size for s in structures])
        self.src = np.concatenate(
            [s.src + start for s, start in zip(structures, self.starts)]
        )
        self.dst = np.concatenate(
            [s.dst + start for s, start in zip(structures, self.starts)]
        )
        self.pairs = np.concatenate(
            [s.pairs + start for s, start in zip(structures, self.starts)]
        )
        pair_counts = np.array([len(s.pairs) for s in structures], dtype=np.int64)
        self.pair_groups = np.flatnonzero(pair_counts)
        self.pair_starts = _run_starts(pair_counts)[self.pair_groups]

        def union(blocks, field, shifts):
            return np.concatenate(
                [getattr(b, field) + k for b, k in zip(blocks, shifts)]
            )

        self.blocks: list[_ColorBlock] = []
        self.run_counts: list[int] = []
        self.run_starts: list[np.ndarray] = []
        for color in range(structures[0].num_colors):
            count = sum(s.num_colors > color for s in structures)
            blocks = [s.blocks[color] for s in structures[:count]]
            site_before = _run_starts([b.sites.size for b in blocks])
            edge_before = _run_starts([b.edge_indices.size for b in blocks])
            self.blocks.append(
                _ColorBlock(
                    sites=union(blocks, "sites", self.starts),
                    source_positions=union(
                        blocks, "source_positions", site_before
                    ),
                    edge_indices=union(blocks, "edge_indices", edge_starts),
                    unique_destinations=union(
                        blocks, "unique_destinations", self.starts
                    ),
                    segment_starts=union(blocks, "segment_starts", edge_before),
                )
            )
            self.run_counts.append(count)
            self.run_starts.append(site_before)

    def copy_improved(
        self, target: np.ndarray, source: np.ndarray, improved: np.ndarray
    ) -> None:
        """Copy the site runs of the improved ``(group, sibling, replica)``
        columns from ``source`` into ``target`` (both C-contiguous
        ``(sites, batch, replicas)``), touching no other column."""
        if len(self.rows) == 1:
            # One group: its run is every site, so a column mask suffices
            # (and is cheaper than flat indices on wide replica axes).
            columns = improved[0]
            target[:, columns] = source[:, columns]
            return
        width = improved[0].size
        group, column = np.nonzero(improved.reshape(len(improved), width))
        lengths = self.sizes[group]
        ends = np.cumsum(lengths)
        flat = np.repeat(
            (self.starts[group] - ends + lengths) * width + column, lengths
        ) + np.arange(ends[-1]) * width
        np.put(target, flat, np.take(source, flat))


def anneal_many(
    hamiltonians: "Sequence[IsingHamiltonian]",
    num_sweeps: int = 500,
    num_restarts: int = 4,
    initial_temperature: float = 5.0,
    final_temperature: float = 0.01,
    seeds: "Sequence[int | np.random.Generator | None] | None" = None,
    seed: "int | np.random.Generator | None" = None,
    sweep_callback: "Callable[[int, int, np.ndarray, np.ndarray], None] | None" = None,
) -> list[AnnealResult]:
    """Anneal a batch of Hamiltonians in one vectorized multi-replica pass.

    Siblings sharing a coupling topology (same qubit count, same quadratic
    pairs — the FrozenQubits fan-out case, where only ``h`` and the offset
    differ per assignment) form a group on one precomputed
    :class:`AnnealStructure`. Groups with the same number of members are
    laid side by side as one disjoint-union program and swept together, so
    a mixed batch costs one sweep loop per distinct group size, not one
    per topology.

    Args:
        hamiltonians: The batch. May be empty (returns ``[]``).
        num_sweeps: Metropolis sweeps per replica.
        num_restarts: Independent replicas per sibling (the restart axis).
        initial_temperature: Start of the geometric cooling schedule.
        final_temperature: End of the schedule.
        seeds: Per-sibling seeds (int, generator, or ``None`` for fresh
            entropy), one per Hamiltonian. This is the cache-friendly form:
            a sibling's result is a pure function of its own seed (see the
            module docstring's seeding contract), so integer-seeded
            siblings can be memoized individually.
        seed: Convenience alternative to ``seeds``: one parent seed from
            which per-sibling integer seeds are spawned
            (:func:`repro.utils.rng.spawn_seeds` order, i.e. batch-order
            dependent — prefer explicit ``seeds`` when caching).
        sweep_callback: Test hook, called after every sweep once per
            sibling with ``(sweep_index, batch_index, spins, energies)``:
            ``batch_index`` is the sibling's position in ``hamiltonians``,
            ``spins`` its replicas' current state, shape
            ``(replicas, num_qubits)``, and ``energies`` their maintained
            energies, shape ``(replicas,)`` (copies; mutation has no effect
            on the run).

    Returns:
        One :class:`~repro.ising.annealer.AnnealResult` per input, in input
        order: best value/spins over the replica axis, plus per-replica
        best energies in ``restart_values``.

    Raises:
        HamiltonianError: Invalid parameters, a zero-qubit sibling, or a
            ``seeds`` length mismatch.
    """
    hamiltonians = list(hamiltonians)
    if seeds is not None and seed is not None:
        raise HamiltonianError("pass either seeds or seed, not both")
    if seeds is None:
        if seed is not None:
            from repro.utils.rng import spawn_seeds

            seeds = spawn_seeds(seed, len(hamiltonians))
        else:
            seeds = [None] * len(hamiltonians)
    if len(seeds) != len(hamiltonians):
        raise HamiltonianError(
            f"got {len(seeds)} seeds for {len(hamiltonians)} hamiltonians"
        )
    if not hamiltonians:
        return []
    for hamiltonian in hamiltonians:
        _validate_anneal_args(
            hamiltonian.num_qubits,
            num_sweeps,
            num_restarts,
            initial_temperature,
            final_temperature,
        )

    # Group the batch by coupling topology, then bucket the groups by
    # member count: each bucket sweeps as one disjoint-union program.
    groups: "OrderedDict[tuple[int, bytes], list[int]]" = OrderedDict()
    for index, hamiltonian in enumerate(hamiltonians):
        key = (hamiltonian.num_qubits, _pair_array(hamiltonian).tobytes())
        groups.setdefault(key, []).append(index)
    buckets: "dict[int, list[tuple[AnnealStructure, list[int]]]]" = {}
    for members in groups.values():
        structure = AnnealStructure.for_hamiltonian(hamiltonians[members[0]])
        buckets.setdefault(len(members), []).append((structure, members))

    results: list[AnnealResult | None] = [None] * len(hamiltonians)
    for bucket in buckets.values():
        bucket.sort(key=lambda entry: -entry[0].num_colors)
        for index, result in _anneal_bucket(
            hamiltonians,
            seeds,
            _UnionLayout([structure for structure, _ in bucket]),
            [members for _, members in bucket],
            num_sweeps,
            num_restarts,
            initial_temperature,
            final_temperature,
            sweep_callback,
        ):
            results[index] = result
    return [result for result in results if result is not None]


def _anneal_bucket(
    hamiltonians: list[IsingHamiltonian],
    seeds: "Sequence[int | np.random.Generator | None]",
    layout: _UnionLayout,
    members: list[list[int]],
    num_sweeps: int,
    num_restarts: int,
    initial_temperature: float,
    final_temperature: float,
    sweep_callback,
) -> list[tuple[int, AnnealResult]]:
    """Sweep one bucket: site arrays are ``(sites, batch, replicas)`` and
    energies ``(groups, batch, replicas)``; ``members[g][b]`` is the input
    index of group ``g``'s sibling ``b``."""
    batch = len(members[0])
    replicas = num_restarts
    siblings = [
        (group, b, index)
        for group, row in enumerate(members)
        for b, index in enumerate(row)
    ]
    rngs = [ensure_rng(seeds[index]) for _, _, index in siblings]

    linear = np.empty((layout.num_sites, batch))
    offsets = np.empty((len(members), batch))
    spins = np.empty((layout.num_sites, batch, replicas))
    for (group, b, index), rng in zip(siblings, rngs):
        rows = layout.rows[group]
        linear[rows, b] = hamiltonians[index].linear
        offsets[group, b] = hamiltonians[index].offset
        # Contract: spins first, then the uniforms (module docstring).
        spins[rows, b, :] = rng.choice(
            (-1.0, 1.0), size=(replicas, layout.sizes[group])
        ).T
    group_weights = [
        structure.directed_weights([hamiltonians[i] for i in row])
        for structure, row in zip(layout.structures, members)
    ]
    weights = np.concatenate(group_weights, axis=1)  # (B, directed edges)
    pair_values = np.concatenate(
        [w[:, : len(s.pairs)] for s, w in zip(layout.structures, group_weights)],
        axis=1,
    )  # (B, pairs) undirected

    # Local fields h_i + sum_j J_ij z_j, maintained incrementally.
    fields = np.repeat(linear[:, :, None], replicas, axis=2)
    if layout.src.size:
        np.add.at(fields, layout.src, weights.T[:, :, None] * spins[layout.dst])

    # Energies z.h + offset + sum J z_i z_j per (group, sibling, replica),
    # each a segment sum over the group's own run: its summation order
    # never depends on what else shares the bucket.
    energy = (
        np.add.reduceat(linear[:, :, None] * spins, layout.starts, axis=0)
        + offsets[:, :, None]
    )
    if layout.pair_groups.size:
        pairs = layout.pairs
        energy[layout.pair_groups] += np.add.reduceat(
            pair_values.T[:, :, None] * (spins[pairs[:, 0]] * spins[pairs[:, 1]]),
            layout.pair_starts,
            axis=0,
        )

    best_energy = energy.copy()
    best_spins = spins.copy()
    cooling = (final_temperature / initial_temperature) ** (
        1.0 / max(num_sweeps - 1, 1)
    )
    temperature = initial_temperature
    steps = [
        (block, 2.0 * weights[:, block.edge_indices].T[:, :, None], count, starts)
        for block, count, starts in zip(
            layout.blocks, layout.run_counts, layout.run_starts
        )
    ]

    sweep_size = layout.num_sites * batch * replicas
    chunk = max(1, min(_UNIFORM_CHUNK, num_sweeps, _UNIFORM_BUFFER // sweep_size))
    uniforms = np.empty((chunk, layout.num_sites, batch, replicas))
    for sweep in range(num_sweeps):
        chunk_step = sweep % chunk
        if chunk_step == 0:
            # One draw per sibling covers the next chunk of sweeps; it is
            # the same stream as one (replicas, n) draw per sweep.
            count = min(chunk, num_sweeps - sweep)
            for (group, b, _), rng in zip(siblings, rngs):
                uniforms[:count, layout.rows[group], b, :] = rng.random(
                    (count, replicas, layout.sizes[group])
                ).transpose(0, 2, 1)
        sweep_uniforms = uniforms[chunk_step]
        inv_temperature = 1.0 / temperature
        for block, scaled_weights, run_count, run_starts in steps:
            sites = block.sites
            z = spins[sites]
            delta = -2.0 * z * fields[sites]
            # Metropolis acceptance in one expression: for delta <= 0 the
            # clamped exponent is 0, exp is 1, and uniforms < 1 always —
            # matching the scalar loop's unconditional downhill accept.
            accept = sweep_uniforms[sites] < np.exp(
                np.minimum(-delta * inv_temperature, 0.0)
            )
            z_new = np.where(accept, -z, z)
            spins[sites] = z_new
            energy[:run_count] += np.add.reduceat(
                np.where(accept, delta, 0.0), run_starts, axis=0
            )
            if block.edge_indices.size:
                # Field maintenance as a segment-sum: flip contributions
                # are gathered in destination-sorted order, reduced per
                # destination run, and added with a duplicate-free fancy
                # index (each destination appears once).
                contributions = scaled_weights * np.where(
                    accept[block.source_positions],
                    z_new[block.source_positions],
                    0.0,
                )
                fields[block.unique_destinations] += np.add.reduceat(
                    contributions, block.segment_starts, axis=0
                )
            improved = energy < best_energy - _IMPROVEMENT_MARGIN
            if improved.any():
                np.copyto(best_energy, energy, where=improved)
                layout.copy_improved(best_spins, spins, improved)
        temperature *= cooling
        if sweep_callback is not None:
            for group, b, index in siblings:
                sweep_callback(
                    sweep,
                    index,
                    spins[layout.rows[group], b, :].T.copy(),
                    energy[group, b].copy(),
                )

    results = []
    for group, b, index in siblings:
        winner = int(np.argmin(best_energy[group, b]))
        results.append(
            (
                index,
                AnnealResult(
                    value=float(best_energy[group, b, winner]),
                    spins=tuple(
                        best_spins[layout.rows[group], b, winner]
                        .astype(np.int64)
                        .tolist()
                    ),
                    num_sweeps=num_sweeps,
                    num_restarts=num_restarts,
                    num_replicas=replicas,
                    restart_values=tuple(best_energy[group, b].tolist()),
                ),
            )
        )
    return results
