"""Seeded synthetic feature providers.

Real deployments plug pretrained encoders in behind these call shapes; the
repo ships deterministic stand-ins so the whole stack runs and tests on a
desk. Every provider output is a pure function of (provider id, input), so
results are reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .rng import SeededRng, derive_seed, string_seed


def check_sequence(shape: tuple) -> None:
    """The provider input rule: a non-empty (frames, dims) sequence."""
    if len(shape) != 2 or shape[0] == 0:
        raise ContractError(f"provider input must be a non-empty 2-D sequence, got shape {shape}")


def pool(features: np.ndarray) -> np.ndarray:
    """Order-insensitive summary of a (frames, dims) feature sequence: the
    per-dim mean, then the per-dim max. Every embedder projects this vector,
    so a caller that embeds one sequence under several providers pools it once.
    An (n, frames, dims) stack pools to (n, 2 * dims), each row with the bits
    of its own sequence's pool: the sums run over frames in the same order."""
    feats = np.asarray(features, dtype=np.float64)
    check_sequence(feats.shape[1:] if feats.ndim == 3 else feats.shape)
    # np.mean's arithmetic, sum then divide, without its per-call overhead
    return np.concatenate([feats.sum(axis=-2) / feats.shape[-2], feats.max(axis=-2)], axis=-1)


class SyntheticEmbedder:
    """Deterministic stand-in for a pretrained embedding network.

    Pools a feature sequence over time and projects it with a random but
    provider-id-seeded matrix. One embedder maps sequences of any feature
    width into the same output space, so audio latents and video features
    can be compared under a shared provider id.
    """

    def __init__(self, provider_id: str, dim: int):
        if dim < 1:
            raise ContractError(f"embedding dim must be >= 1, got {dim}")
        self.provider_id = provider_id
        self.dim = dim
        self._weights: dict[int, np.ndarray] = {}

    def _projection(self, d_in: int) -> np.ndarray:
        w = self._weights.get(d_in)
        if w is None:
            rng = SeededRng(derive_seed(string_seed(self.provider_id), "proj", d_in, self.dim))
            w = rng.normal((d_in, self.dim)) / np.sqrt(d_in)
            self._weights[d_in] = w
        return w

    def project(self, pooled: np.ndarray) -> np.ndarray:
        """Embedding of one pool() vector, or of each row of an (n, width)
        stack. Every row is its own vector-matrix product, so a row keeps its
        bits in any stack; one (n, width) @ (width, dim) gemm would not."""
        return (pooled[..., None, :] @ self._projection(pooled.shape[-1]))[..., 0, :]

    def embed(self, features: np.ndarray) -> np.ndarray:
        return self.project(pool(features))


def text_embedding(text: str, n_tokens: int, d_text: int) -> np.ndarray:
    """Deterministic pseudo-embedding of a prompt string."""
    rng = SeededRng(derive_seed(string_seed("text-provider"), string_seed(text), n_tokens, d_text))
    return rng.normal((n_tokens, d_text)) * 0.5


def video_features(video_id: str, t_video: int, d_video: int) -> np.ndarray:
    """Deterministic pseudo-features for a video identifier."""
    rng = SeededRng(derive_seed(string_seed("video-provider"), string_seed(video_id), t_video, d_video))
    return rng.normal((t_video, d_video)) * 0.5


# ---------------------------------------------------------------------------
# toy paired dataset


@dataclass(frozen=True)
class ToyClip:
    """One synthetic training pair: audio latent plus its conditions."""

    x1: np.ndarray          # (t_audio, d_audio_latent)
    text_emb: np.ndarray    # (2, d_text)
    video_feat: np.ndarray  # (t_audio, d_video_feat)


def make_toy_clips(n_clips: int, t_audio: int, d_audio: int, d_video: int, d_text: int, seed: int) -> list[ToyClip]:
    """Build clips whose audio energy spikes where the video spikes.

    Each clip gets two event frames; at each event the video features and
    the audio latent both receive a spike of about 2 along a fixed global
    direction, over a 0.05 noise floor, and the video has t_audio frames.
    The video -> audio mapping is therefore the same for every clip while
    event times vary, which is what a conditional generator has to pick up.
    Each clip's text is two tokens.
    """
    if t_audio < 8:
        raise ContractError(f"toy clips need t_audio >= 8, got {t_audio}")
    dir_rng = SeededRng(derive_seed(seed, "toyset", "directions"))
    g_audio = dir_rng.normal((d_audio,))
    g_audio /= np.linalg.norm(g_audio)
    g_video = dir_rng.normal((d_video,))
    g_video /= np.linalg.norm(g_video)

    clips = []
    for i in range(n_clips):
        rng = SeededRng(derive_seed(seed, "toyset", i))
        lo, hi = 2, t_audio - 2
        frames: list[int] = []
        attempts = 0
        while len(frames) < 2 and attempts < 200:
            cand = lo + rng.integers(hi - lo)
            attempts += 1
            if all(abs(cand - f) >= 6 for f in frames):
                frames.append(cand)
        frames.sort()

        x1 = rng.normal((t_audio, d_audio)) * 0.05
        video = rng.normal((t_audio, d_video)) * 0.05
        for f in frames:
            x1[f] += 2.0 * (0.9 + 0.2 * rng.uniform()) * g_audio
            video[f] += 2.0 * g_video
        text = rng.normal((2, d_text)) * 0.5
        clips.append(ToyClip(x1=x1, text_emb=text, video_feat=video))
    return clips
