"""Force-directed graph layout (Fruchterman–Reingold, own implementation).

Nodes repel pairwise; edges attract their endpoints; a cooling schedule
caps per-iteration displacement.  Deterministic under a seed, with
layout-quality measurements (edge crossings, total displacement) used
by the Figure 7 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class LayoutResult:
    """Final node positions plus convergence telemetry."""

    positions: dict[str, tuple[float, float]]
    iterations: int
    final_max_displacement: float


class ForceLayout:
    """Fruchterman–Reingold layout on a fixed canvas.

    Args:
        width / height: canvas dimensions.
        iterations: maximum relaxation steps.
        seed: initial-placement determinism.
        min_displacement: early-stop threshold on the largest node move.
    """

    def __init__(
        self,
        width: float = 800.0,
        height: float = 600.0,
        iterations: int = 200,
        seed: int = 42,
        min_displacement: float = 0.5,
    ):
        self.width = width
        self.height = height
        self.iterations = iterations
        self.seed = seed
        self.min_displacement = min_displacement

    def layout(
        self,
        node_ids: Sequence[str],
        edges: Sequence[tuple[str, str]],
    ) -> LayoutResult:
        """Compute positions for ``node_ids`` given undirected ``edges``."""
        n = len(node_ids)
        if n == 0:
            return LayoutResult({}, 0, 0.0)
        index = {node_id: i for i, node_id in enumerate(node_ids)}
        rng = np.random.default_rng(self.seed)
        positions = rng.uniform(
            [self.width * 0.25, self.height * 0.25],
            [self.width * 0.75, self.height * 0.75],
            size=(n, 2),
        )
        if n == 1:
            positions[0] = [self.width / 2, self.height / 2]
            return LayoutResult(
                {node_ids[0]: tuple(positions[0])}, 0, 0.0
            )

        edge_index = np.asarray(
            [
                (index[a], index[b])
                for a, b in edges
                if a in index and b in index and a != b
            ],
            dtype=np.int64,
        ).reshape(-1, 2)

        area = self.width * self.height
        k = np.sqrt(area / n)  # ideal spring length
        temperature = self.width / 10.0
        cooling = temperature / (self.iterations + 1)

        max_move = 0.0
        iteration = 0
        for iteration in range(1, self.iterations + 1):
            delta = positions[:, None, :] - positions[None, :, :]
            distance = np.linalg.norm(delta, axis=2)
            np.fill_diagonal(distance, 1.0)
            distance = np.maximum(distance, 0.01)
            # Repulsion: k^2 / d along delta.
            repulsion = (k * k) / (distance**2)
            displacement = (delta / distance[:, :, None]) * repulsion[
                :, :, None
            ]
            np.einsum("iij->ij", displacement)[:] = 0.0
            force = displacement.sum(axis=1)
            # Attraction along edges: d^2 / k.
            if len(edge_index):
                src, dst = edge_index[:, 0], edge_index[:, 1]
                edge_delta = positions[src] - positions[dst]
                edge_dist = np.maximum(
                    np.linalg.norm(edge_delta, axis=1, keepdims=True), 0.01
                )
                pull = edge_delta / edge_dist * (edge_dist**2 / k)
                np.add.at(force, src, -pull)
                np.add.at(force, dst, pull)
            # Cap by temperature, apply, clamp to canvas.
            magnitude = np.maximum(
                np.linalg.norm(force, axis=1, keepdims=True), 1e-12
            )
            capped = force / magnitude * np.minimum(magnitude, temperature)
            positions += capped
            positions[:, 0] = np.clip(positions[:, 0], 10, self.width - 10)
            positions[:, 1] = np.clip(positions[:, 1], 10, self.height - 10)
            max_move = float(np.abs(capped).max())
            temperature = max(temperature - cooling, 0.01)
            if max_move < self.min_displacement:
                break

        return LayoutResult(
            {
                node_id: (float(positions[i, 0]), float(positions[i, 1]))
                for node_id, i in index.items()
            },
            iteration,
            max_move,
        )


def count_edge_crossings(
    positions: dict[str, tuple[float, float]],
    edges: Sequence[tuple[str, str]],
) -> int:
    """Number of intersecting edge pairs (layout-quality metric)."""

    def crosses(p1, p2, p3, p4) -> bool:
        def orient(a, b, c) -> float:
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (
                c[0] - a[0]
            )

        d1 = orient(p3, p4, p1)
        d2 = orient(p3, p4, p2)
        d3 = orient(p1, p2, p3)
        d4 = orient(p1, p2, p4)
        return (d1 * d2 < 0) and (d3 * d4 < 0)

    count = 0
    segments = [
        (positions[a], positions[b])
        for a, b in edges
        if a in positions and b in positions
    ]
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            a1, a2 = segments[i]
            b1, b2 = segments[j]
            shared = {a1, a2} & {b1, b2}
            if shared:
                continue
            if crosses(a1, a2, b1, b2):
                count += 1
    return count
