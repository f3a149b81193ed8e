"""Two-tower diffusion transformer for audio latent velocity prediction.

An audio tower (self-attention, text cross-attention, MLP) and a shallower-
featured video tower (self-attention, MLP) run side by side; after every
layer pair a residual cross-modal mixer exchanges information between the
towers. Timestep conditioning enters every block through adaLN-zero
modulation, so a freshly initialized model is an identity between its input
and output projections. One forward runs a batch of items, each with its own
time and condition bundle; the video tower and mixers run on the items that
carry video, and are skipped entirely when none does. Work that items share,
such as one state under several guidance branches, runs once and is
copied out to them.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import container
from .errors import ConfigError, ContractError, FormatError, ShapeError, check_positive_int
from .rng import SeededRng, derive_seed
from .tensor import (
    Tensor,
    attention,
    concat,
    gated_residual,
    gather_rows,
    gelu,
    matmul,
    modulated_norm,
    scatter_rows,
)

# timesteps live in [0, 1]; the sinusoid sees them scaled so neighbouring
# steps of a fine grid stay distinguishable
_TIME_SCALE = 1000.0
_INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    d_audio_latent: int = 16
    d_video_feat: int = 16
    d_text: int = 16
    t_audio: int = 32

    def __post_init__(self):
        for f in fields(self):
            check_positive_int(f.name, getattr(self, f.name))
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


@dataclass(frozen=True)
class ConditionBundle:
    """Conditioning for one generation: optional text and video features.

    A modality is kept exactly when its features are present. A dropped
    text falls back to a learned null token; a dropped video bypasses the
    video tower. ConditionBundle() is the unconditional branch of
    classifier-free guidance. extra_tokens, when present, are appended to
    the cross-attention token list in text-embedding space. Features are
    never differentiated: each is stored as a float64 array, checked to be
    finite and (rows >= 1, dims); a model checks dims against its config.
    """

    text_emb: object = None
    video_feat: object = None
    extra_tokens: object = None

    def __post_init__(self):
        for name in ("text_emb", "video_feat", "extra_tokens"):
            value = getattr(self, name)
            if value is None:
                continue
            array = np.asarray(value, dtype=np.float64)
            if array.ndim != 2 or array.shape[0] < 1:
                raise ShapeError(f"{name} must be 2-D (rows x dims) with at least one row, got shape {array.shape}")
            if not np.isfinite(array).all():
                raise ContractError(f"{name} contains non-finite values")
            object.__setattr__(self, name, array)


def _feature_rows(arr: np.ndarray, name: str, width: int, width_name: str) -> np.ndarray:
    """A condition's (rows, width) feature array, checked against the config."""
    if arr.shape[-1] != width:
        raise ShapeError(f"{name} last dim {arr.shape[-1]} != {width_name} {width}")
    return arr


def timestep_features(t, dim: int) -> np.ndarray:
    """Sinusoidal features, shape (B, dim), of a 1-D sequence of B times in [0, 1]."""
    times = np.asarray(t, dtype=np.float64)
    inside = (times >= 0.0) & (times <= 1.0)  # False for NaN
    if not inside.all():
        raise ContractError(f"timestep {times[~inside][0]} outside [0, 1]")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half, dtype=np.float64) / max(half, 1))
    angles = (times * _TIME_SCALE)[:, None] * freqs
    # odd dim: the last column is zero
    return np.concatenate([np.sin(angles), np.cos(angles), np.zeros((times.size, dim - 2 * half))], axis=1)


def resample_video(video_feat, t_audio: int):
    """Nearest-neighbour resample of (t_v, d) video features to t_audio rows.

    Output row j copies input row floor(j * t_v / t_audio). The features
    come from a ConditionBundle and t_audio from a ModelConfig, which
    check that t_v and t_audio are >= 1.
    """
    t_v = video_feat.shape[0]
    idx = (np.arange(t_audio) * t_v) // t_audio
    return video_feat[idx]


class Linear:
    """Affine map on the last axis; rows of the input are the batch.
    The weight is N(0, _INIT_STD^2) from rng, or zero when rng is None."""

    def __init__(self, d_in: int, d_out: int, rng: SeededRng | None):
        if rng is None:
            w = np.zeros((d_in, d_out))
        else:
            w = rng.normal((d_in, d_out)) * _INIT_STD
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.w, self.b)

    def named(self, prefix: str) -> list:
        return [(prefix + ".w", self.w), (prefix + ".b", self.b)]


def cross_modal_mix(y_a: Tensor, y_v: Tensor, mix_a: Linear, mix_v: Linear | None) -> tuple:
    """Residual exchange between the towers.

    Both streams see the concatenation of both, through their own affine
    map, added back onto themselves:

        x_a = y_a + mix_a([y_a, y_v])
        x_v = y_v + mix_v([y_a, y_v])

    mix_v is None in the last layer, whose video stream nothing reads,
    so it has none: y_v comes back as it went in.
    """
    if y_a.shape != y_v.shape:
        raise ShapeError(f"mixer streams must match: {y_a.shape} vs {y_v.shape}")
    joint = concat(y_a, y_v)
    return y_a + mix_a(joint), y_v if mix_v is None else y_v + mix_v(joint)


class Block:
    """adaLN-zero block: pre-norm self-attention, optional cross-attention
    over context tokens, then an MLP; every sublayer gated and residual."""

    def __init__(self, cfg: ModelConfig, rng: SeededRng | None, cross_attention: bool):
        d = cfg.d_model
        self.n_heads = cfg.n_heads
        self.cross_attention = cross_attention
        n_sublayers = 3 if cross_attention else 2
        # shift, scale and gate of every sublayer, in sublayer order
        self.adaln = Linear(d, n_sublayers * 3 * d, None)
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)
        if cross_attention:
            self.cq = Linear(d, d, rng)
            self.ck = Linear(d, d, rng)
            self.cv = Linear(d, d, rng)
            self.co = Linear(d, d, rng)
        self.fc1 = Linear(d, 4 * d, rng)
        self.fc2 = Linear(4 * d, d, rng)

    def __call__(self, x: Tensor, mod: Tensor, context_kv: tuple = (), context_mask=None) -> Tensor:
        """x: (B, T, d) stream; mod: the block's TimePath entry, shift,
        scale and gate of every sublayer, (B, 1, n_sublayers 3d) per item
        or (1, 1, n_sublayers 3d) shared by all. context_kv: the (B, L, d)
        keys and values, ck and cv of the context tokens, that a
        cross-attention block attends to, context_mask their (B, L)
        validity; both unused otherwise.

        A cross-attention block also takes a stream of n states for B =
        r n items under a shared mod, item b reading state b % n: the
        self-attention sublayer and the cross-attention query, which read
        no context, run on the n states, and their rows are copied out
        to the B items for the cross-attention."""
        y = modulated_norm(x, mod, 0)
        x = gated_residual(x, mod, 0, self.wo(attention(self.wq(y), self.wk(y), self.wv(y), self.n_heads)))
        mlp = 1
        if self.cross_attention:
            q = self.cq(modulated_norm(x, mod, 1))
            if len(x.data) < len(context_mask):
                items = np.arange(len(context_mask)) % len(x.data)
                x, q = gather_rows(x, items), gather_rows(q, items)
            x = gated_residual(x, mod, 1, self.co(attention(q, *context_kv, self.n_heads, context_mask)))
            mlp = 2
        y = modulated_norm(x, mod, mlp)
        return gated_residual(x, mod, mlp, self.fc2(gelu(self.fc1(y))))

    def named(self, prefix: str) -> list:
        cross = ("cq", "ck", "cv", "co") if self.cross_attention else ()
        out = self.adaln.named(prefix + ".adaln")
        for tag in ("wq", "wk", "wv", "wo") + cross + ("fc1", "fc2"):
            out += getattr(self, tag).named(f"{prefix}.{tag}")
        return out


@dataclass(frozen=True, eq=False)
class Conditioning:
    """The part of a forward that depends on its B condition bundles alone,
    from TwoTowerModel.condition; every forward over the same bundles can
    reuse it, whatever its states and times.

    text_kv holds each audio block's (keys, values) of the cross-attention
    tokens, each (B, L, d), and text_mask their (B, L) validity. video
    lists the items that carry video, video_h holds the video tower input
    (m, t_audio, d) once per distinct bundle object among them, and
    video_rows gives each video item's row of video_h; video_h is None
    when no item carries video. m < len(video) when items share a bundle
    object, as a sampler's conditional items do. Computed taped,
    its tensors stay on the tape, so a backward through one forward leaves
    gradients on them: differentiate each forward through a fresh
    Conditioning. The sampler's is computed under tensor.no_tape and
    carries no tape.
    """

    text_kv: tuple
    text_mask: np.ndarray
    video: tuple
    video_h: Tensor | None
    video_rows: tuple


@dataclass(frozen=True, eq=False)
class TimePath:
    """Every block's adaLN modulation at m times, from TwoTowerModel.time_path.

    audio[i] is audio block i's (m, 1, 9d) modulation and video[i] video
    block i's (m, 1, 6d). A forward applies a path of one row per item
    row by row, and a path of one row to every item. Built taped, a path
    stays on the tape whole, for a backward to the time MLP and the adaLN
    weights. path[k], the path at time k alone (m = 1), is cut from the
    tape: a forward on it is for sampling and passes them no gradient.
    """

    audio: tuple
    video: tuple

    def __len__(self) -> int:
        return self.audio[0].shape[0]

    def __getitem__(self, k: int) -> "TimePath":
        def row(mods: tuple) -> tuple:
            return tuple(Tensor(mod.data[k : k + 1]) for mod in mods)

        return TimePath(row(self.audio), row(self.video))


class TwoTowerModel:
    """Velocity predictor v(x_t, t, condition) over audio latent sequences.

    Every parameter's data is a view of one float64 vector, flat, in
    registry order; slices[name] is its place there. Change parameters in
    place: rebinding p.data cuts it off the vector, and training refuses
    a model with such a parameter. seed None draws no random numbers and
    leaves every parameter zero, for load_state to fill.
    """

    def __init__(self, config: ModelConfig, seed: int | None):
        self.config = config
        self.video_tower_invocations = 0
        rng = None if seed is None else SeededRng(derive_seed(seed, "model-init"))
        cfg = config
        d = cfg.d_model

        self.audio_in = Linear(cfg.d_audio_latent, d, rng)
        self.video_in = Linear(cfg.d_video_feat, d, rng)
        self.text_proj = Linear(cfg.d_text, d, rng)
        self.out_proj = Linear(d, cfg.d_audio_latent, rng)
        self.time_mlp1 = Linear(d, d, rng)
        self.time_mlp2 = Linear(d, d, rng)
        # positions start at zero so a fresh model is exactly the
        # input-projection / output-projection composition
        self.audio_pos = Tensor(np.zeros((cfg.t_audio, d)), requires_grad=True)
        self.video_pos = Tensor(np.zeros((cfg.t_audio, d)), requires_grad=True)
        null_text = np.zeros((1, cfg.d_text)) if rng is None else rng.normal((1, cfg.d_text)) * 0.02
        self.null_text = Tensor(null_text, requires_grad=True)

        # the audio tower attends to text tokens; the video tower does not
        self.audio_blocks = [Block(cfg, rng, cross_attention=True) for _ in range(cfg.n_layers)]
        self.video_blocks = [Block(cfg, rng, cross_attention=False) for _ in range(cfg.n_layers)]
        # mixers start at zero, so video fades in as they train; the last layer's video stream is never read, so no mix_v
        self.mix_a = [Linear(2 * d, d, None) for _ in range(cfg.n_layers)]
        self.mix_v = [Linear(2 * d, d, None) for _ in range(cfg.n_layers - 1)]

        named: list = []
        named += self.audio_in.named("audio_in")
        named.append(("audio_pos", self.audio_pos))
        named += self.video_in.named("video_in")
        named.append(("video_pos", self.video_pos))
        named += self.text_proj.named("text_proj")
        named.append(("null_text", self.null_text))
        named += self.out_proj.named("out_proj")
        named += self.time_mlp1.named("time_mlp1")
        named += self.time_mlp2.named("time_mlp2")
        for i in range(cfg.n_layers):
            named += self.audio_blocks[i].named(f"layers.{i}.audio")
            named += self.video_blocks[i].named(f"layers.{i}.video")
            named += self.mix_a[i].named(f"layers.{i}.mix_a")
            named += self.mix_v[i].named(f"layers.{i}.mix_v") if i < len(self.mix_v) else []
        self._params = dict(named)
        if len(self._params) != len(named):
            raise ContractError("duplicate parameter names in model registry")
        # every parameter is a view of one vector, in registry order, so
        # the optimizer updates them all with whole-vector ops
        self.flat = np.concatenate([p.data.reshape(-1) for _, p in named])
        self.slices: dict = {}
        start = 0
        for name, p in named:
            at = self.slices[name] = slice(start, start + p.size)
            p.data = self.flat[at].reshape(p.shape)
            start = at.stop

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict:
        return self._params

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def state_arrays(self) -> dict:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state(self, arrays: dict) -> None:
        """Copy every named array into its parameter's view of the vector.
        All or nothing: names and shapes are checked before any copy."""
        missing = sorted(set(self._params) - set(arrays))
        extra = sorted(set(arrays) - set(self._params))
        if missing or extra:
            raise FormatError(f"parameter names do not match model: missing {missing}, unexpected {extra}")
        checked = {}
        for name, p in self._params.items():
            arr = checked[name] = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.shape:
                raise FormatError(f"parameter {name} has shape {arr.shape}, expected {p.shape}")
        for name, p in self._params.items():
            p.data[...] = checked[name]

    def save(self, path: str) -> None:
        container.write_checkpoint(path, astuple(self.config), self.state_arrays())

    @classmethod
    def load(cls, path: str) -> "TwoTowerModel":
        """Rebuild a saved model, whose config record holds ModelConfig's
        fields in declaration order; a bad config record or non-finite
        value is a FormatError raised before the model is built."""
        values, arrays = container.read_checkpoint(path)
        names = [f.name for f in fields(ModelConfig)]
        if len(values) != len(names):
            raise FormatError(f"{path}: config record holds {len(values)} ints, ModelConfig has {len(names)} fields")
        config = dict(zip(names, values))
        try:
            cfg = ModelConfig(**config)
        except ConfigError as exc:
            raise FormatError(f"{path}: bad config record: {exc}") from None
        stored, needed = sum(arr.size for arr in arrays.values()), expected_param_count(cfg)
        if stored != needed:
            raise FormatError(f"{path}: config record {config} needs {needed} parameter values, records hold {stored}")
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise FormatError(f"{path}: record {name!r} holds a non-finite value")
        model = cls(cfg, seed=None)
        model.load_state(arrays)
        return model

    # -- forward ------------------------------------------------------------

    def time_path(self, times) -> TimePath:
        """Every block's modulation at each of m times in [0, 1].

        The sinusoidal features pass through the time MLP, and its output
        through one gelu, once for all blocks; then each block's adaln is
        one product of m rows. Computed taped, the path stays on the tape
        for a backward. Given row-invariant gemm (README), path[k] has the
        bits of the modulations of time k in any path.
        """
        feats = Tensor(timestep_features(times, self.config.d_model)[:, None, :])
        g = gelu(self.time_mlp2(gelu(self.time_mlp1(feats))))
        return TimePath(
            tuple(block.adaln(g) for block in self.audio_blocks),
            tuple(block.adaln(g) for block in self.video_blocks),
        )

    def _text_tokens(self, conds: list) -> tuple:
        """(B, L, d) projected cross-attention tokens and their (B, L) mask.

        Item b's tokens are its text rows, or the learned null token when
        its text is dropped, then any extra tokens; shorter items are
        zero-padded to the longest and their padding masked out.
        """
        cfg = self.config
        items = []
        for cond in conds:
            uses_null = cond.text_emb is None
            lead = np.zeros((1, cfg.d_text)) if uses_null else cond.text_emb
            rows = [_feature_rows(lead, "text_emb", cfg.d_text, "d_text")]
            if cond.extra_tokens is not None:
                rows.append(_feature_rows(cond.extra_tokens, "extra_tokens", cfg.d_text, "d_text"))
            items.append((np.concatenate(rows), uses_null))
        width = max(tokens.shape[0] for tokens, _ in items)
        const = np.zeros((len(items), width, cfg.d_text))
        null = np.zeros((len(items), width, 1))
        mask = np.zeros((len(items), width), dtype=bool)
        for b, (tokens, uses_null) in enumerate(items):
            const[b, : tokens.shape[0]] = tokens
            mask[b, : tokens.shape[0]] = True
            null[b, 0, 0] = float(uses_null)
        # the null token enters through the tape so its gradient flows
        return self.text_proj(Tensor(const) + Tensor(null) * self.null_text), mask

    def condition(self, conds) -> Conditioning:
        """Check B >= 1 bundles and compute what a forward needs of them.

        That is every audio block's cross-attention keys and values of the
        text tokens, with their mask, and the video tower's input
        video_in(frames) + video_pos once per distinct bundle object that
        carries video, with each video item's row of it. A sampler
        conditions its batch once per trajectory, not per step.
        """
        cfg = self.config
        conds = list(conds)
        if not conds:
            raise ShapeError("condition needs B >= 1 bundles, got none")
        text_h, text_mask = self._text_tokens(conds)
        video = tuple(b for b, cond in enumerate(conds) if cond.video_feat is not None)
        rows: dict = {}  # id of each distinct bundle object that carries video -> its row of video_h
        video_rows = tuple(rows.setdefault(id(conds[b]), len(rows)) for b in video)
        video_h = None
        if video:
            firsts = [video[video_rows.index(row)] for row in range(len(rows))]
            feats = [_feature_rows(conds[b].video_feat, "video_feat", cfg.d_video_feat, "d_video_feat") for b in firsts]
            frames = np.stack([resample_video(f, cfg.t_audio) for f in feats])
            video_h = self.video_in(Tensor(frames)) + self.video_pos
        text_kv = tuple((block.ck(text_h), block.cv(text_h)) for block in self.audio_blocks)
        return Conditioning(text_kv, text_mask, video, video_h, video_rows)

    def forward(self, x: Tensor, path: TimePath, conditioning: Conditioning) -> Tensor:
        """Velocities (B, t_audio, d_audio_latent) for the B items of conditioning.

        conditioning is condition() of the B items' bundles. x holds n
        states (n, t_audio, d_audio_latent) for B = r n items, and item b
        reads state b % n; a guided step passes each state once for its r
        branches. path is a TimePath of B rows, one per item, or of one
        row, such as time_path(times)[k], that every item shares; n < B
        needs a one-row path. Under a one-row path, what depends on a state
        and the time alone runs once per state: audio_in(x) + audio_pos,
        audio block 0's self-attention sublayer and its cross-attention
        query; and video block 0 runs once per distinct video input
        (condition). Their rows are then copied out to the items. Items
        do not interact: given row-invariant gemm (README), an item's
        output has the bits of its batch-1 output unless the batch pads
        its cross-attention tokens.
        """
        cfg = self.config
        n, items = x.shape[0] if x.ndim == 3 else 0, len(conditioning.text_mask)
        per_item = len(path) == items  # one modulation row per item, not one shared row
        path_fits = len(path) == 1 or per_item and n == items
        if x.shape[1:] != (cfg.t_audio, cfg.d_audio_latent) or not n or items % n or not path_fits:
            raise ShapeError(
                f"forward needs x (n, t_audio, d_audio_latent) = (n, {cfg.t_audio}, {cfg.d_audio_latent}) for n "
                f"dividing B = {items} items, and a path of one row, or of B rows with n = B; "
                f"got x {x.shape}, {len(path)} path rows"
            )
        h_a = self.audio_in(x) + self.audio_pos
        video, h_v = conditioning.video, conditioning.video_h

        def video_items(h: Tensor) -> Tensor:  # a row per distinct video input -> a row per video item
            return h if len(h.data) == len(video) else gather_rows(h, conditioning.video_rows)

        if video:
            self.video_tower_invocations += 1
            if per_item:  # each item's video runs under its own modulation from video block 0 on
                h_v = video_items(h_v)
        for i in range(cfg.n_layers):
            h_a = self.audio_blocks[i](h_a, path.audio[i], conditioning.text_kv[i], conditioning.text_mask)
            if video:
                mod_v = gather_rows(path.video[i], video) if per_item else path.video[i]
                h_v = video_items(self.video_blocks[i](h_v, mod_v))
                mix_v = self.mix_v[i] if i < len(self.mix_v) else None
                mixed_a, h_v = cross_modal_mix(gather_rows(h_a, video), h_v, self.mix_a[i], mix_v)
                # items without video keep their audio stream through the mixers
                h_a = scatter_rows(mixed_a, video, h_a)
        # the final video stream is dropped; only the audio stream is decoded
        return self.out_proj(h_a)

    __call__ = forward


def expected_param_count(cfg: ModelConfig) -> int:
    """Closed-form parameter count for a config.

    Composed from affine(i, o) = i*o + o:
      projections: affine(a,d) + affine(v,d) + affine(x,d) + affine(d,a)
      time MLP:    2 * affine(d,d)
      positions:   2 * T*d, null text token: x
      per layer:   audio block  affine(d,9d) + 8*affine(d,d)
                               + affine(d,4d) + affine(4d,d)
                   video block  affine(d,6d) + 4*affine(d,d)
                               + affine(d,4d) + affine(4d,d)
                   mixers       2 * affine(2d,d), less one in the last layer
    """

    def affine(i: int, o: int) -> int:
        return i * o + o

    d, a, v, x, T, L = (
        cfg.d_model,
        cfg.d_audio_latent,
        cfg.d_video_feat,
        cfg.d_text,
        cfg.t_audio,
        cfg.n_layers,
    )
    audio_block = affine(d, 9 * d) + 8 * affine(d, d) + affine(d, 4 * d) + affine(4 * d, d)
    video_block = affine(d, 6 * d) + 4 * affine(d, d) + affine(d, 4 * d) + affine(4 * d, d)
    mixer = affine(2 * d, d)
    fixed = (
        affine(a, d)
        + affine(v, d)
        + affine(x, d)
        + affine(d, a)
        + 2 * affine(d, d)
        + 2 * T * d
        + x
    )
    return fixed + L * (audio_block + video_block) + (2 * L - 1) * mixer
