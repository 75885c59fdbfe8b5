"""The compressed VQRF model and its restore-based rendering flow.

A :class:`VQRFModel` holds exactly what VQRF ships for one scene:

* the surviving voxel positions and their densities,
* a 4096-entry, 12-channel codebook plus a per-voxel codebook index for the
  vector-quantized voxels,
* an INT8 "true voxel grid" holding the uncompressed features of the most
  important voxels (plus its de-quantization scale).

The original VQRF renderer **restores the full dense grid** from this model
before rendering (:meth:`VQRFModel.restore`), which is exactly the memory
blow-up SpNeRF removes.  :class:`VQRFField` wraps that flow as a
:class:`~repro.nerf.renderer.RadianceField` so baseline images and memory
traffic can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.grid.quantization import QuantizedTensor, quantize_int8
from repro.grid.voxel_grid import GridSpec, SparseVoxelGrid, VoxelGrid
from repro.nerf.mlp import MLP
from repro.nerf.renderer import DenseGridField
from repro.vqrf.importance import importance_from_density
from repro.vqrf.pruning import PruningResult, prune_by_importance
from repro.vqrf.vector_quantization import (
    DEFAULT_CODEBOOK_SIZE,
    VectorQuantizer,
    build_codebook,
)

__all__ = ["VQRFModel", "VQRFField", "compress_scene"]


@dataclass
class VQRFModel:
    """Compressed representation of one scene's voxel grid.

    Attributes
    ----------
    spec:
        Grid geometry of the original scene.
    positions:
        ``(M, 3)`` int32 coordinates of surviving voxels (quantized + kept).
    density:
        ``(M,)`` float32 densities of surviving voxels.
    is_true_voxel:
        ``(M,)`` bool — True for voxels stored uncompressed in the true grid.
    codebook_indices:
        ``(M,)`` int32 — codebook entry for vector-quantized voxels (valid
        where ``~is_true_voxel``).
    true_row:
        ``(M,)`` int32 — row into ``true_features`` for kept voxels (valid
        where ``is_true_voxel``).
    quantizer:
        The trained codebook.
    true_features:
        INT8-quantized features of the kept voxels plus their scale.
    """

    spec: GridSpec
    positions: np.ndarray
    density: np.ndarray
    is_true_voxel: np.ndarray
    codebook_indices: np.ndarray
    true_row: np.ndarray
    quantizer: VectorQuantizer
    true_features: QuantizedTensor
    pruning: Optional[PruningResult] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.int32)
        self.density = np.asarray(self.density, dtype=np.float32)
        self.is_true_voxel = np.asarray(self.is_true_voxel, dtype=bool)
        self.codebook_indices = np.asarray(self.codebook_indices, dtype=np.int32)
        self.true_row = np.asarray(self.true_row, dtype=np.int32)
        m = self.positions.shape[0]
        for name, arr in (
            ("density", self.density),
            ("is_true_voxel", self.is_true_voxel),
            ("codebook_indices", self.codebook_indices),
            ("true_row", self.true_row),
        ):
            if arr.shape != (m,):
                raise ValueError(f"{name} must have shape ({m},), got {arr.shape}")

    # ------------------------------------------------------------------
    @property
    def num_voxels(self) -> int:
        """Number of surviving voxels in the compressed model."""
        return int(self.positions.shape[0])

    @property
    def num_true_voxels(self) -> int:
        return int(self.is_true_voxel.sum())

    @property
    def num_quantized_voxels(self) -> int:
        return self.num_voxels - self.num_true_voxels

    # ------------------------------------------------------------------
    def voxel_features(self) -> np.ndarray:
        """Decode the per-voxel features (codebook or de-quantized true grid)."""
        features = np.empty((self.num_voxels, self.quantizer.dim), dtype=np.float32)
        vq_mask = ~self.is_true_voxel
        if np.any(vq_mask):
            features[vq_mask] = self.quantizer.decode(self.codebook_indices[vq_mask])
        if np.any(self.is_true_voxel):
            true = self.true_features.dequantize()
            features[self.is_true_voxel] = true[self.true_row[self.is_true_voxel]]
        return features

    def to_sparse(self) -> SparseVoxelGrid:
        """The compressed model's surviving voxels as a sparse grid."""
        return SparseVoxelGrid(
            spec=self.spec,
            positions=self.positions,
            density=self.density,
            features=self.voxel_features(),
        )

    def restore(self) -> VoxelGrid:
        """VQRF's rendering flow: restore the full dense grid.

        This is the expensive step the paper's Fig. 1 highlights — the output
        occupies ``R^3 * (1 + feature_dim)`` floats regardless of sparsity.
        """
        return self.to_sparse().to_dense()

    # ------------------------------------------------------------------
    def compressed_size_bytes(
        self,
        density_bytes: int = 2,
        index_bytes: int = 2,
        coordinate_bytes: int = 4,
        codebook_bytes: int = 2,
    ) -> Dict[str, int]:
        """Byte-level breakdown of the *stored* (on-disk) VQRF model."""
        m = self.num_voxels
        sizes = {
            "coordinates": m * 3 * coordinate_bytes,
            "density": m * density_bytes,
            "codebook_indices": self.num_quantized_voxels * index_bytes,
            "codebook": self.quantizer.memory_bytes(codebook_bytes),
            "true_features": self.true_features.nbytes,
        }
        sizes["total"] = sum(sizes.values())
        return sizes

    def restored_size_bytes(self, dtype_bytes: int = 4) -> int:
        """Memory of the dense grid VQRF materialises at render time."""
        return self.spec.num_vertices * (1 + self.spec.feature_dim) * dtype_bytes


class VQRFField:
    """Radiance field implementing the original VQRF render flow.

    ``restore()`` is called once (mirroring VQRF materialising the dense grid
    before rendering); queries then behave exactly like the dense reference
    field, so any PSNR difference to the reference isolates the compression
    error (pruning + VQ + INT8), not the renderer.
    """

    accepts_encoded_dirs = True

    def __init__(self, model: VQRFModel, mlp: MLP, num_view_frequencies: int = 4) -> None:
        self.model = model
        self.restored_grid = model.restore()
        self._dense_field = DenseGridField(self.restored_grid, mlp, num_view_frequencies)
        self.num_view_frequencies = num_view_frequencies
        self.last_stats = self._dense_field.last_stats

    def query(self, points: np.ndarray, view_dirs: np.ndarray, encoded_dirs=None):
        density, rgb = self._dense_field.query(points, view_dirs, encoded_dirs=encoded_dirs)
        self.last_stats = self._dense_field.last_stats
        return density, rgb

    # ------------------------------------------------------------------
    def occupancy_grid(self):
        """Occupancy of the *restored* grid (what this field actually renders).

        Restoring writes only the surviving voxels, so the mask is exact for
        the rendered values — cells it reports empty interpolate to exactly
        zero regardless of what the pre-compression scene held there.
        """
        return self._dense_field.occupancy_grid()

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Workload counters from the most recent :meth:`query`."""
        return self.last_stats

    def memory_report(self) -> Dict[str, int]:
        """Rendering-time memory footprint of the VQRF flow.

        ``total`` is the restored dense grid — what must be resident while
        rendering (the paper's Fig. 1 blow-up); the compressed (stored) model
        size is included alongside for reference and is *not* part of the
        total.
        """
        restored = int(self.model.restored_size_bytes())
        return {
            "restored_grid": restored,
            "compressed_model": int(self.model.compressed_size_bytes()["total"]),
            "total": restored,
        }


def compress_scene(
    sparse: SparseVoxelGrid,
    importance: Optional[np.ndarray] = None,
    codebook_size: int = DEFAULT_CODEBOOK_SIZE,
    prune_fraction: float = 0.05,
    keep_fraction: float = 0.30,
    kmeans_iterations: int = 8,
    seed: int = 0,
) -> VQRFModel:
    """Run the full VQRF compression pipeline on one scene's sparse grid.

    Parameters
    ----------
    sparse:
        Occupied voxels of the scene.
    importance:
        Optional per-voxel importance; the density heuristic is used when
        omitted.
    codebook_size, prune_fraction, keep_fraction, kmeans_iterations, seed:
        Compression hyper-parameters (paper/VQRF defaults).
    """
    if importance is None:
        importance = importance_from_density(sparse)
    pruning = prune_by_importance(
        sparse, importance, prune_fraction=prune_fraction, keep_fraction=keep_fraction
    )

    survivor_idx = np.sort(
        np.concatenate([pruning.quantized_indices, pruning.kept_indices])
    ).astype(np.int64)
    kept_set = np.zeros(sparse.num_points, dtype=bool)
    kept_set[pruning.kept_indices] = True

    positions = sparse.positions[survivor_idx]
    density = sparse.density[survivor_idx]
    features = sparse.features[survivor_idx]
    is_true = kept_set[survivor_idx]

    # Codebook trained on the vector-quantized band only.
    vq_features = features[~is_true]
    quantizer = build_codebook(
        vq_features if vq_features.size else features,
        num_entries=codebook_size,
        num_iterations=kmeans_iterations,
        seed=seed,
    )

    codebook_indices = np.zeros(positions.shape[0], dtype=np.int32)
    if np.any(~is_true):
        codebook_indices[~is_true] = quantizer.encode(vq_features)

    true_row = np.full(positions.shape[0], -1, dtype=np.int32)
    true_features_float = features[is_true]
    true_row[is_true] = np.arange(int(is_true.sum()), dtype=np.int32)
    true_features = quantize_int8(true_features_float)

    return VQRFModel(
        spec=sparse.spec,
        positions=positions,
        density=density,
        is_true_voxel=is_true,
        codebook_indices=codebook_indices,
        true_row=true_row,
        quantizer=quantizer,
        true_features=true_features,
        pruning=pruning,
    )
