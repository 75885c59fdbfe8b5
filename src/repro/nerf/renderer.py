"""The volumetric renderer and the dense-grid reference radiance field.

:class:`VolumetricRenderer` walks rays through the scene bounding box,
queries a :class:`RadianceField` for per-sample density and RGB, and
composites them into an image.  The field abstraction is what lets the
reference pipeline, the VQRF restore-based pipeline and the SpNeRF online
decoding pipeline be compared with identical cameras, sampling and
compositing.

Three hot-path optimisations live here:

* the view direction of a ray is identical for all of its samples, so the
  positional encoding is computed once per ray — and once per *frame* in
  :meth:`VolumetricRenderer.render_image`, which slices it per chunk —
  instead of once per sample (fields opt in via ``accepts_encoded_dirs``);
* occupancy-guided rendering (``RenderConfig.use_occupancy``, on by
  default): an :class:`~repro.nerf.occupancy.OccupancyIndex` derived from the
  field's grids tightens each ray's integration interval to the occupied
  region (rays missing it entirely are answered as background with zero field
  queries) and culls samples landing in empty cells before the field query,
  gathering the survivors into one contiguous batch.  Bit-identical by
  construction: every culled sample would have decoded to exactly zero
  density and color, so the composited arrays are unchanged;
* opt-in early ray termination (``RenderConfig.transmittance_threshold``):
  samples are queried in depth blocks and rays whose transmittance has fallen
  below the threshold stop being queried.  Off by default so the default
  render stays bit-exact; :meth:`RenderConfig.fast` turns it on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from repro.grid.interpolation import trilinear_interpolate_multi
from repro.grid.voxel_grid import VoxelGrid
from repro.nerf.encoding import positional_encoding
from repro.nerf.occupancy import build_occupancy_index
from repro.nerf.mlp import MLP
from repro.nerf.rays import Camera, RayBatch, generate_rays, ray_aabb_intersect, sample_along_rays
from repro.nerf.volume_rendering import composite_rays, density_to_alpha, segment_lengths

__all__ = ["RadianceField", "DenseGridField", "RenderConfig", "VolumetricRenderer", "RenderStats"]


class RadianceField(Protocol):
    """Anything that can be volume-rendered.

    ``query`` receives world-space sample points and matching unit view
    directions and returns per-sample raw density ``(N,)`` and RGB ``(N, 3)``.

    This is the minimal contract the low-level renderer needs; the public API
    (:class:`repro.api.RadianceField`) extends it with ``stats`` and
    ``memory_report`` for workload and memory introspection.  Fields may
    additionally set ``accepts_encoded_dirs = True`` and take an
    ``encoded_dirs`` keyword to receive the view-direction encoding
    precomputed once per ray.
    """

    def query(self, points: np.ndarray, view_dirs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        ...  # pragma: no cover - protocol definition


@dataclass
class RenderConfig:
    """Sampling and compositing parameters shared by all pipelines.

    ``transmittance_threshold`` enables early ray termination: once a ray's
    accumulated transmittance drops below it, the remaining samples are not
    queried.  The default of 0.0 keeps rendering bit-exact (every sample is
    queried); the :meth:`fast` profile enables it.  ``termination_block_size``
    is the number of depth samples queried between transmittance checks.
    """

    num_samples: int = 64
    near: float = 0.05
    far: float = 12.0
    background: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    chunk_size: int = 8192
    stratified: bool = False
    num_view_frequencies: int = 4
    transmittance_threshold: float = 0.0
    termination_block_size: int = 16
    #: Consult the field's occupancy index (when it has one) to skip empty
    #: rays and cull empty-cell samples.  Bit-identical images either way;
    #: off only for benchmarking the exhaustive path.
    use_occupancy: bool = True

    def fast(self, **overrides) -> "RenderConfig":
        """The fast-render profile: early ray termination enabled.

        The 1e-3 threshold drops contributions bounded by 0.1% of pixel
        intensity — invisible at 8-bit precision but enough to stop rays as
        soon as they hit an opaque surface.
        """
        defaults = {"transmittance_threshold": 1e-3}
        defaults.update(overrides)
        return replace(self, **defaults)


@dataclass
class RenderStats:
    """Workload counters produced while rendering one image.

    These are the quantities the hardware models consume: how many rays were
    traced, how many samples were taken, how many of those landed in occupied
    space (and therefore trigger grid lookups and an MLP evaluation).
    ``num_vertex_lookups`` stays *logical* (8 per queried in-bounds sample);
    ``num_unique_vertex_fetches`` counts the physical fetches after the
    vertex-reuse decode cache, so their ratio is the reuse factor the
    accelerator's double-buffered decode exploits.

    ``num_samples`` is always the logical count (rays x samples-per-ray);
    ``num_culled_samples`` of those were skipped by the occupancy index
    before ever reaching the field, and ``num_skipped_rays`` counts rays
    answered as background without a single field query.  Both read 0 when
    occupancy guidance is off or the field has no index.
    """

    num_rays: int = 0
    num_samples: int = 0
    num_active_samples: int = 0
    num_vertex_lookups: int = 0
    num_unique_vertex_fetches: int = 0
    num_culled_samples: int = 0
    num_skipped_rays: int = 0

    @property
    def vertex_reuse_ratio(self) -> float:
        """Logical vertex lookups per physical fetch (1.0 = no reuse)."""
        if self.num_unique_vertex_fetches <= 0:
            return 1.0
        return self.num_vertex_lookups / self.num_unique_vertex_fetches

    def merge(self, other: "RenderStats") -> None:
        self.num_rays += other.num_rays
        self.num_samples += other.num_samples
        self.num_active_samples += other.num_active_samples
        self.num_vertex_lookups += other.num_vertex_lookups
        self.num_unique_vertex_fetches += other.num_unique_vertex_fetches
        self.num_culled_samples += other.num_culled_samples
        self.num_skipped_rays += other.num_skipped_rays


class DenseGridField:
    """Reference radiance field: dense voxel grid + MLP decoder.

    Density is trilinearly interpolated from the grid's density channel; color
    comes from the MLP applied to the interpolated 12-channel feature and the
    encoded view direction.  This is the "ground truth" field the synthetic
    dataset's images are rendered from, and also what VQRF reconstructs after
    its restore step.  Density and features are fetched in one fused
    interpolation pass, so the corner lattice is computed once per query.
    """

    accepts_encoded_dirs = True

    def __init__(self, grid: VoxelGrid, mlp: MLP, num_view_frequencies: int = 4) -> None:
        self.grid = grid
        self.mlp = mlp
        self.num_view_frequencies = num_view_frequencies
        self.last_stats = RenderStats()

    def query(
        self,
        points: np.ndarray,
        view_dirs: np.ndarray,
        encoded_dirs: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample raw density and RGB."""
        points = np.asarray(points, dtype=np.float64)
        view_dirs = np.asarray(view_dirs, dtype=np.float64)
        spec = self.grid.spec
        inside = spec.contains(points)
        n = points.shape[0]

        density = np.zeros(n, dtype=np.float64)
        rgb = np.zeros((n, 3), dtype=np.float64)
        if not np.any(inside):
            # Reset the counters too: a stale active-sample count from the
            # previous query would otherwise be attributed to this one.
            self.last_stats = RenderStats(num_samples=n)
            return density, rgb

        grid_coords = spec.world_to_grid(points[inside])

        interp_density, interp_features = trilinear_interpolate_multi(
            grid_coords,
            lambda v: (
                self.grid.density[v[:, 0], v[:, 1], v[:, 2]],
                self.grid.features[v[:, 0], v[:, 1], v[:, 2]],
            ),
            spec.resolution,
        )

        # Only samples that actually touch occupied space need the MLP: empty
        # samples contribute neither opacity nor color, and skipping them is
        # what makes sparse scenes cheap (the same early-out every voxel NeRF
        # renderer performs).
        active = (interp_density > 0.0) | np.any(interp_features != 0.0, axis=-1)
        colors = np.zeros((grid_coords.shape[0], 3), dtype=np.float64)
        if np.any(active):
            if encoded_dirs is not None:
                encoded = encoded_dirs[inside][active]
            else:
                encoded = positional_encoding(
                    view_dirs[inside][active], self.num_view_frequencies
                )
            mlp_in = np.concatenate([interp_features[active], encoded], axis=-1)
            colors[active] = self.mlp.forward(mlp_in)

        density[inside] = interp_density
        rgb[inside] = colors

        lookups = int(inside.sum()) * 8
        self.last_stats = RenderStats(
            num_rays=0,
            num_samples=n,
            num_active_samples=int(active.sum()),
            num_vertex_lookups=lookups,
            # The dense field indexes its host arrays directly: every lookup
            # is a physical fetch, so the reuse ratio reads 1.0.
            num_unique_vertex_fetches=lookups,
        )
        return density, rgb

    # ------------------------------------------------------------------
    def occupancy_grid(self):
        """``(spec, vertex_mask)`` describing which vertices are non-zero.

        Consumed by :func:`~repro.nerf.occupancy.build_occupancy_index`; the
        mask is exact (a vertex is occupied iff its density or any feature
        channel is non-zero), so cells it reports empty interpolate to
        exactly zero.
        """
        return self.grid.spec, self.grid.occupancy_mask()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> RenderStats:
        """Workload counters from the most recent :meth:`query`."""
        return self.last_stats

    def memory_report(self) -> Dict[str, int]:
        """Rendering-time memory: the full dense density and feature grids."""
        sizes = {
            "density_grid": int(self.grid.density.nbytes),
            "feature_grid": int(self.grid.features.nbytes),
        }
        sizes["total"] = sum(sizes.values())
        return sizes


class VolumetricRenderer:
    """Renders images (or pixel subsets) of any :class:`RadianceField`.

    Parameters
    ----------
    field, config:
        The radiance field and sampling/compositing parameters.
    occupancy:
        Optional explicit :class:`~repro.nerf.occupancy.OccupancyIndex`.
        When omitted and ``config.use_occupancy`` is on, the field's own
        cached index is used (built once per bundle by
        :func:`~repro.nerf.occupancy.build_occupancy_index`); fields may opt
        out wholesale with a ``use_occupancy = False`` attribute (set by
        ``PipelineConfig(occupancy=False)``).
    """

    def __init__(
        self,
        field: RadianceField,
        config: Optional[RenderConfig] = None,
        occupancy=None,
    ) -> None:
        self.field = field
        self.config = config or RenderConfig()
        self.last_stats = RenderStats()
        self.occupancy = None
        if self.config.use_occupancy and getattr(field, "use_occupancy", True):
            if occupancy is None:
                occupancy = build_occupancy_index(field)
            self.occupancy = occupancy
        #: Scratch density/rgb buffers reused across chunks of a frame (the
        #: chunks of one frame share at most two shapes, so this avoids a
        #: multi-MB allocation per chunk on the hot path).
        self._scratch: Dict[Tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Start a fresh :attr:`last_stats` accumulation window.

        :meth:`render_rays` deliberately *merges* into ``last_stats`` so a
        chunked frame accumulates one set of counters — which means direct
        ``render_rays`` callers rendering multiple frames must call this
        between frames (as :meth:`render_image`, :meth:`render_pixels`, the
        engine and the serving paths do) or the counters keep growing.
        """
        self.last_stats = RenderStats()

    def _zeros(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """A zeroed float64 scratch array, reusing storage when shapes repeat."""
        if len(self._scratch) > 8:  # safety valve against shape churn
            self._scratch.clear()
        key = (name, shape)
        buf = self._scratch.get(key)
        if buf is None:
            buf = np.zeros(shape, dtype=np.float64)
            self._scratch[key] = buf
        else:
            buf.fill(0.0)
        return buf

    # ------------------------------------------------------------------
    def _encode_ray_dirs(self, directions: np.ndarray) -> Optional[np.ndarray]:
        """Per-ray view-direction encoding, if the field can accept it."""
        if not getattr(self.field, "accepts_encoded_dirs", False):
            return None
        frequencies = getattr(
            self.field, "num_view_frequencies", self.config.num_view_frequencies
        )
        return positional_encoding(directions, frequencies)

    def _query(
        self,
        points: np.ndarray,
        dirs: np.ndarray,
        encoded: Optional[np.ndarray],
        batch_stats: RenderStats,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Query the field and fold its per-query counters into ``batch_stats``."""
        if encoded is not None:
            density, rgb = self.field.query(points, dirs, encoded_dirs=encoded)
        else:
            density, rgb = self.field.query(points, dirs)
        stats = getattr(self.field, "last_stats", None)
        if stats is not None:
            batch_stats.num_active_samples += stats.num_active_samples
            batch_stats.num_vertex_lookups += stats.num_vertex_lookups
            batch_stats.num_unique_vertex_fetches += getattr(
                stats, "num_unique_vertex_fetches", 0
            )
        return density, rgb

    # ------------------------------------------------------------------
    def render_rays(
        self,
        rays: RayBatch,
        rng: Optional[np.random.Generator] = None,
        encoded_dirs: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Render a batch of rays to ``(N, 3)`` pixel colors.

        ``encoded_dirs`` optionally supplies the per-ray view-direction
        encodings (one row per ray); :meth:`render_image` computes them once
        per frame and passes the chunk's slice here.  Stats are *merged* into
        :attr:`last_stats` — see :meth:`reset_stats`.
        """
        cfg = self.config
        points, t_values = sample_along_rays(
            rays, cfg.num_samples, stratified=cfg.stratified, rng=rng
        )
        n, s, _ = points.shape
        encoded_rays = (
            encoded_dirs if encoded_dirs is not None else self._encode_ray_dirs(rays.directions)
        )
        batch_stats = RenderStats(num_rays=n, num_samples=n * s)
        sample_mask = self._occupancy_sample_mask(rays, points, t_values)

        if cfg.transmittance_threshold > 0.0 and s > 1:
            density, rgb = self._query_with_termination(
                points, t_values, rays.directions, encoded_rays, batch_stats, sample_mask
            )
        elif sample_mask is not None:
            density, rgb = self._query_compacted(
                points, rays.directions, encoded_rays, batch_stats, sample_mask
            )
        else:
            flat_points = points.reshape(-1, 3)
            flat_dirs = np.repeat(rays.directions, s, axis=0)
            flat_encoded = (
                np.repeat(encoded_rays, s, axis=0) if encoded_rays is not None else None
            )
            density, rgb = self._query(flat_points, flat_dirs, flat_encoded, batch_stats)
            density = density.reshape(n, s)
            rgb = rgb.reshape(n, s, 3)

        pixels, _, _ = composite_rays(
            density, rgb, t_values, background=np.asarray(cfg.background)
        )
        self.last_stats.merge(batch_stats)
        return pixels

    # ------------------------------------------------------------------
    def _occupancy_sample_mask(
        self, rays: RayBatch, points: np.ndarray, t_values: np.ndarray
    ) -> Optional[np.ndarray]:
        """Per-sample occupancy verdict ``(N, S)``, or ``None`` when unguided.

        Two stacked conservative filters: the ray interval is clamped to the
        occupied region's padded AABB (samples outside it — and every sample
        of rays missing it — are empty without even a cell lookup), then the
        samples inside the clamped interval are tested against the coarse
        cell grid.  ``False`` therefore guarantees the field would decode the
        sample to exactly zero density and color.
        """
        occ = self.occupancy
        if occ is None:
            return None
        n, s, _ = points.shape
        near, far, hit = occ.clip_rays(rays.origins, rays.directions, rays.near, rays.far)
        mask = np.zeros((n, s), dtype=bool)
        if not np.any(hit):
            return mask
        within = hit[:, None] & (t_values >= near[:, None]) & (t_values <= far[:, None])
        widx = np.flatnonzero(within.reshape(-1))
        if widx.size:
            mask.reshape(-1)[widx] = occ.point_mask(points.reshape(-1, 3)[widx])
        return mask

    def _query_compacted(
        self,
        points: np.ndarray,
        directions: np.ndarray,
        encoded_rays: Optional[np.ndarray],
        batch_stats: RenderStats,
        sample_mask: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Query only occupancy-positive samples, gathered into one batch.

        Survivors are gathered in flat (ray-major) order — the same order the
        exhaustive path queries them in — and their per-ray direction rows
        are index-gathered instead of ``np.repeat``-ing full per-sample
        arrays, so the hot loop allocates proportionally to the *surviving*
        samples.  Culled entries keep the exact zeros the field would have
        returned, so compositing is unchanged bit-for-bit.
        """
        n, s, _ = points.shape
        density = self._zeros("density", (n, s))
        rgb = self._zeros("rgb", (n, s, 3))
        batch_stats.num_skipped_rays += int(n - np.count_nonzero(sample_mask.any(axis=1)))
        idx = np.flatnonzero(sample_mask.reshape(-1))
        batch_stats.num_culled_samples += int(n * s - idx.size)
        if idx.size:
            ray_ids = idx // s
            d, c = self._query(
                points.reshape(-1, 3)[idx],
                directions[ray_ids],
                encoded_rays[ray_ids] if encoded_rays is not None else None,
                batch_stats,
            )
            density.reshape(-1)[idx] = d
            rgb.reshape(-1, 3)[idx] = c
        return density, rgb

    # ------------------------------------------------------------------
    def _query_with_termination(
        self,
        points: np.ndarray,
        t_values: np.ndarray,
        directions: np.ndarray,
        encoded_rays: Optional[np.ndarray],
        batch_stats: RenderStats,
        sample_mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Query samples in depth blocks, dropping rays that went opaque.

        Samples never queried keep zero density, so they contribute nothing
        when the assembled arrays are composited; the image differs from an
        exhaustive render only by contributions bounded by the threshold.
        ``sample_mask`` additionally culls occupancy-empty samples inside
        each block (and rays with no occupied sample at all) the same way
        the non-terminating path does.
        """
        cfg = self.config
        n, s, _ = points.shape
        block = max(1, int(cfg.termination_block_size))
        deltas = segment_lengths(t_values)

        density = self._zeros("density", (n, s))
        rgb = self._zeros("rgb", (n, s, 3))
        transmittance = np.ones(n, dtype=np.float64)
        if sample_mask is not None:
            live = sample_mask.any(axis=1)
            skipped = int(n - np.count_nonzero(live))
            batch_stats.num_skipped_rays += skipped
            batch_stats.num_culled_samples += skipped * s
            alive = np.flatnonzero(live)
        else:
            alive = np.arange(n)

        for start in range(0, s, block):
            if alive.size == 0:
                break
            end = min(start + block, s)
            width = end - start
            if sample_mask is not None:
                sub = sample_mask[alive, start:end]
                keep = np.flatnonzero(sub.reshape(-1))
                batch_stats.num_culled_samples += int(sub.size - keep.size)
                if keep.size == 0:
                    # The whole depth block is provably empty for every live
                    # ray; zero densities also leave the (1 + 1e-10)-guarded
                    # transmittance product a no-op within the threshold's
                    # tolerance, so the block is skipped outright.
                    continue
                ray_rows = alive[keep // width]
                d_flat, c_flat = self._query(
                    points[alive, start:end].reshape(-1, 3)[keep],
                    directions[ray_rows],
                    encoded_rays[ray_rows] if encoded_rays is not None else None,
                    batch_stats,
                )
                d = np.zeros(alive.size * width, dtype=np.float64)
                c = np.zeros((alive.size * width, 3), dtype=np.float64)
                d[keep] = d_flat
                c[keep] = c_flat
                d = d.reshape(-1, width)
                density[alive, start:end] = d
                rgb[alive, start:end] = c.reshape(-1, width, 3)
            else:
                pts = points[alive, start:end].reshape(-1, 3)
                dirs = np.repeat(directions[alive], width, axis=0)
                enc = (
                    np.repeat(encoded_rays[alive], width, axis=0)
                    if encoded_rays is not None
                    else None
                )
                d, c = self._query(pts, dirs, enc, batch_stats)
                d = d.reshape(-1, width)
                density[alive, start:end] = d
                rgb[alive, start:end] = c.reshape(-1, width, 3)

            # Same (1 - alpha + 1e-10) product as compute_weights, so the
            # termination decision is consistent with the compositor.
            alphas = density_to_alpha(d, deltas[alive, start:end])
            transmittance[alive] *= np.prod(1.0 - alphas + 1e-10, axis=-1)
            alive = alive[transmittance[alive] > cfg.transmittance_threshold]

        return density, rgb

    # ------------------------------------------------------------------
    def render_image(
        self,
        camera: Camera,
        bbox_min: Tuple[float, float, float],
        bbox_max: Tuple[float, float, float],
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Render a full image from ``camera``, returning ``(H, W, 3)`` in [0, 1]."""
        cfg = self.config
        self.reset_stats()
        rays = generate_rays(camera, near=cfg.near, far=cfg.far)
        rays = ray_aabb_intersect(rays, bbox_min, bbox_max)
        # One view-direction encoding per frame, sliced per chunk below —
        # re-encoding the same directions for every chunk was pure waste.
        encoded = self._encode_ray_dirs(rays.directions)

        pixels = np.zeros((rays.num_rays, 3), dtype=np.float64)
        for start in range(0, rays.num_rays, cfg.chunk_size):
            end = min(start + cfg.chunk_size, rays.num_rays)
            chunk = RayBatch(
                rays.origins[start:end],
                rays.directions[start:end],
                rays.near[start:end],
                rays.far[start:end],
            )
            pixels[start:end] = self.render_rays(
                chunk, rng=rng, encoded_dirs=None if encoded is None else encoded[start:end]
            )
        return np.clip(pixels.reshape(camera.height, camera.width, 3), 0.0, 1.0)

    # ------------------------------------------------------------------
    def render_pixels(
        self,
        camera: Camera,
        pixel_indices: np.ndarray,
        bbox_min: Tuple[float, float, float],
        bbox_max: Tuple[float, float, float],
    ) -> np.ndarray:
        """Render only selected pixels (used by the fast PSNR sweeps)."""
        cfg = self.config
        self.reset_stats()
        rays = generate_rays(camera, near=cfg.near, far=cfg.far, pixel_indices=pixel_indices)
        rays = ray_aabb_intersect(rays, bbox_min, bbox_max)
        return np.clip(self.render_rays(rays), 0.0, 1.0)
