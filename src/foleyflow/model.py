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
    mlp,
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


def _attention_tags(cross_attention: bool) -> tuple:
    """A block's attention maps: self-attention, then any cross-attention."""
    return ("wq", "wk", "wv", "wo") + (("cq", "ck", "cv", "co") if cross_attention else ())


def _declare(cfg: ModelConfig):
    """Yield every parameter of a cfg model as (name, shape, draw), in
    registry order: the order of flat and of a checkpoint's records.

    draw is None for a parameter that starts at zero. Drawn parameters
    take N(0, _INIT_STD^2) values, sorted by draw, then registry order:
    projections and time MLP, null text token, every audio block, every
    video block. Shapes are tuples of Python ints and nothing is
    allocated, so a reader can check a file against the declaration and
    stop at its first mismatch, however large the config.
    """
    d = cfg.d_model

    def affine(name: str, d_in: int, d_out: int, draw: int | None):
        yield name + ".w", (d_in, d_out), draw
        yield name + ".b", (d_out,), None

    # positions start at zero so a fresh model is exactly the
    # input-projection / output-projection composition
    yield from affine("audio_in", cfg.d_audio_latent, d, 0)
    yield "audio_pos", (cfg.t_audio, d), None
    yield from affine("video_in", cfg.d_video_feat, d, 0)
    yield "video_pos", (cfg.t_audio, d), None
    yield from affine("text_proj", cfg.d_text, d, 0)
    yield "null_text", (1, cfg.d_text), 1
    yield from affine("out_proj", d, cfg.d_audio_latent, 0)
    yield from affine("time_mlp1", d, d, 0)
    yield from affine("time_mlp2", d, d, 0)
    for i in range(cfg.n_layers):
        # the audio tower attends to text tokens; the video tower does not
        for tower, cross, draw in (("audio", True, 2), ("video", False, 3)):
            prefix = f"layers.{i}.{tower}"
            # shift, scale and gate of every sublayer, in sublayer order
            yield from affine(prefix + ".adaln", d, (3 if cross else 2) * 3 * d, None)
            for tag in _attention_tags(cross):
                yield from affine(f"{prefix}.{tag}", d, d, draw)
            yield from affine(prefix + ".fc1", d, 4 * d, draw)
            yield from affine(prefix + ".fc2", 4 * d, d, draw)
        # mixers start at zero, so video fades in as they train; the last
        # layer's video stream is never read, so it has no mix_v
        yield from affine(f"layers.{i}.mix_a", 2 * d, d, None)
        if i < cfg.n_layers - 1:
            yield from affine(f"layers.{i}.mix_v", 2 * d, d, None)


def cross_modal_mix(y_a: Tensor, y_v: Tensor, mix_a: tuple, mix_v: tuple | None) -> tuple:
    """Residual exchange between the towers.

    Both streams see the concatenation of both, through their own affine
    map, a (weight, bias) pair, added back onto themselves:

        x_a = y_a + [y_a, y_v] @ w_a + b_a
        x_v = y_v + [y_a, y_v] @ w_v + b_v

    mix_v is None in the last layer, whose video stream nothing reads,
    so it has none: y_v comes back as it went in.
    """
    if y_a.shape != y_v.shape:
        raise ShapeError(f"mixer streams must match: {y_a.shape} vs {y_v.shape}")
    joint = concat(y_a, y_v)
    return y_a + matmul(joint, *mix_a), y_v if mix_v is None else y_v + matmul(joint, *mix_v)


class Block:
    """adaLN-zero block: pre-norm self-attention, optional cross-attention
    over context tokens, then an MLP; every sublayer gated and residual.
    Each affine map is a (weight, bias) pair of the model's parameters."""

    def __init__(self, pairs: dict, prefix: str, n_heads: int, cross_attention: bool):
        self.n_heads = n_heads
        self.cross_attention = cross_attention
        for tag in ("adaln",) + _attention_tags(cross_attention) + ("fc1", "fc2"):
            setattr(self, tag, pairs[f"{prefix}.{tag}"])

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
        att = attention(matmul(y, *self.wq), matmul(y, *self.wk), matmul(y, *self.wv), self.n_heads)
        x = gated_residual(x, mod, 0, matmul(att, *self.wo))
        last = 1  # the MLP sublayer's index
        if self.cross_attention:
            q = matmul(modulated_norm(x, mod, 1), *self.cq)
            if len(x.data) < len(context_mask):
                items = np.arange(len(context_mask)) % len(x.data)
                x, q = gather_rows(x, items), gather_rows(q, items)
            att = attention(q, *context_kv, self.n_heads, context_mask)
            x = gated_residual(x, mod, 1, matmul(att, *self.co))
            last = 2
        y = mlp(modulated_norm(x, mod, last), *self.fc1, *self.fc2)
        return gated_residual(x, mod, last, y)


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
    object, as a sampler's conditional items do. Computed taped, its
    tensors are part of the first backward's graph, which releases them:
    a backward through a second forward on the same Conditioning raises
    ContractError, so differentiate each forward through a fresh one.
    Forwards that are never differentiated may share one; the sampler's
    is computed under tensor.no_tape and carries no tape.
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
    stays on the tape whole, for one backward to the time MLP and the
    adaLN weights; that backward releases it, and a backward through a
    second forward on the same path raises ContractError. path[k], the
    path at time k alone (m = 1), is cut from the tape: a forward on it
    is for sampling and passes them no gradient.
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
    registry order (_declare); slices[name] is its place there. Change
    parameters in place: rebinding p.data cuts it off the vector, and
    training refuses a model with such a parameter.
    """

    def __init__(self, config: ModelConfig, seed: int):
        layout = list(_declare(config))
        self._allocate(config, {name: shape for name, shape, _ in layout})
        rng = SeededRng(derive_seed(seed, "model-init"))
        # sorted is stable: registry order within each draw
        for name, shape, _ in sorted((p for p in layout if p[2] is not None), key=lambda p: p[2]):
            self._params[name].data[...] = rng.normal(shape) * _INIT_STD

    def _allocate(self, config: ModelConfig, shapes: dict) -> None:
        """Allocate flat, zero, for parameters of shapes (name -> shape, in
        registry order), bind each to its view and each affine map to its
        (weight, bias) pair."""
        self.config = config
        self.video_tower_invocations = 0
        # every parameter is a view of one vector, in registry order, so
        # the optimizer updates them all with whole-vector ops
        self.flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
        self.slices, params = {}, {}
        start = 0
        for name, shape in shapes.items():
            at = self.slices[name] = slice(start, start + math.prod(shape))
            p = params[name] = Tensor((), requires_grad=True)  # a Tensor copies its values; bind the view instead
            p.data = self.flat[at].reshape(shape)
            start = at.stop
        self._params = params
        pairs = {name[:-2]: (w, params[name[:-2] + ".b"]) for name, w in params.items() if name.endswith(".w")}
        self.audio_in, self.video_in, self.text_proj = pairs["audio_in"], pairs["video_in"], pairs["text_proj"]
        self.out_proj, self.time_mlp1, self.time_mlp2 = pairs["out_proj"], pairs["time_mlp1"], pairs["time_mlp2"]
        self.audio_pos, self.video_pos, self.null_text = params["audio_pos"], params["video_pos"], params["null_text"]
        layers, heads = range(config.n_layers), config.n_heads
        self.audio_blocks = [Block(pairs, f"layers.{i}.audio", heads, cross_attention=True) for i in layers]
        self.video_blocks = [Block(pairs, f"layers.{i}.video", heads, cross_attention=False) for i in layers]
        self.mix_a = [pairs[f"layers.{i}.mix_a"] for i in layers]
        self.mix_v = [pairs[f"layers.{i}.mix_v"] for i in layers[:-1]]

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict:
        return self._params

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def state_arrays(self) -> dict:
        return {name: p.data.copy() for name, p in self._params.items()}

    def save(self, path: str) -> None:
        container.write_checkpoint(path, astuple(self.config), self.state_arrays())

    @classmethod
    def load(cls, path: str) -> "TwoTowerModel":
        """Rebuild a saved model, whose config record holds ModelConfig's
        fields in declaration order. Every record is checked against the
        config's declaration, by name, shape and finiteness, before the
        model is allocated; any mismatch is a FormatError. The declaration
        stops at the first parameter the file lacks, so a config record
        far larger than its records costs no more than the records do."""
        values, arrays = container.read_checkpoint(path)
        names = [f.name for f in fields(ModelConfig)]
        if len(values) != len(names):
            raise FormatError(f"{path}: config record holds {len(values)} ints, ModelConfig has {len(names)} fields")
        try:
            cfg = ModelConfig(**dict(zip(names, values)))
        except ConfigError as exc:
            raise FormatError(f"{path}: bad config record: {exc}") from None
        shapes = {}
        for name, shape, _ in _declare(cfg):
            arr = arrays.get(name)
            if arr is None:
                raise FormatError(f"{path}: config record {values} needs a record {name!r}, the file has none")
            if arr.shape != shape:
                raise FormatError(f"{path}: record {name!r} has shape {arr.shape}, config record {values} needs {shape}")
            if not np.isfinite(arr).all():
                raise FormatError(f"{path}: record {name!r} holds a non-finite value")
            shapes[name] = shape
        if len(shapes) != len(arrays):
            extra = [name for name in arrays if name not in shapes]
            raise FormatError(f"{path}: records {extra} are no parameters of config record {values}")
        model = cls.__new__(cls)
        model._allocate(cfg, shapes)
        for name, p in model._params.items():
            p.data[...] = arrays[name]
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
        g = gelu(mlp(feats, *self.time_mlp1, *self.time_mlp2))
        return TimePath(
            tuple(matmul(g, *block.adaln) for block in self.audio_blocks),
            tuple(matmul(g, *block.adaln) for block in self.video_blocks),
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
        return matmul(Tensor(const) + Tensor(null) * self.null_text, *self.text_proj), mask

    def condition(self, conds) -> Conditioning:
        """Check B >= 1 bundles and compute what a forward needs of them.

        That is every audio block's cross-attention keys and values of the
        text tokens, with their mask, and the video tower's input
        frames @ video_in + video_pos once per distinct bundle object that
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
            video_h = matmul(Tensor(frames), *self.video_in) + self.video_pos
        text_kv = tuple((matmul(text_h, *block.ck), matmul(text_h, *block.cv)) for block in self.audio_blocks)
        return Conditioning(text_kv, text_mask, video, video_h, video_rows)

    def forward(self, x: Tensor, path: TimePath, conditioning: Conditioning) -> Tensor:
        """Velocities (B, t_audio, d_audio_latent) for the B items of conditioning.

        conditioning is condition() of the B items' bundles. x holds n
        states (n, t_audio, d_audio_latent) for B = r n items, and item b
        reads state b % n; a guided step passes each state once for its r
        branches. path is a TimePath of B rows, one per item, or of one
        row, such as time_path(times)[k], that every item shares; n < B
        needs a one-row path. Under a one-row path, what depends on a state
        and the time alone runs once per state: x @ audio_in + audio_pos,
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
        h_a = matmul(x, *self.audio_in) + self.audio_pos
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
        return matmul(h_a, *self.out_proj)

    __call__ = forward

