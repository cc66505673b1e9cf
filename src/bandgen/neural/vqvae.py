"""Learned per-bar features via a grouped vector-quantized autoencoder.

Each (track, bar) token sub-sequence is pooled to a latent z_e, split into
8 contiguous groups, and each group snapped to its nearest codebook row.
The 8 row indices are the bar's learned feature codes. A positional decoder
reconstructs the sub-sequence from the quantized latent; training minimizes
reconstruction cross-entropy plus the usual codebook and commitment terms.
The blocks take the config's dtype, and so does every array of a step;
only the nearest-row search measures its distances in float64, a chunk of
rows at a time so that its difference array stays within DIST_BUDGET
elements.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError, EmptyCodebook, UsageError
from ..tokens import EOS_ID, PAD_ID, TrackTokenSeqs
from .autograd import (Tensor, cross_entropy_logits, no_grad, straight_through,
                       take)
from .model import (ModelConfig, N_VQ_GROUPS, Spec, _linear, _linear_block,
                    check_blocks, check_ids, draw_params, sinusoidal_table)
from .optim import Adam

MAX_BAR_TOKENS = 96
COMMITMENT_WEIGHT = 0.25
BATCH_UNITS = 256  # bar units per step; a larger corpus is sampled without replacement
DIST_BUDGET = 1 << 22  # difference elements per chunk of the nearest-row search


def quantize_vectors(z_e: np.ndarray, codebook: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest codebook row per group (squared Euclidean, ties to the lower
    index). z_e: [N, d_l]; codebook: [K, d_l/8].
    Returns (codes [N, 8], z_q [N, d_l])."""
    z = np.asarray(z_e, dtype=np.float64)
    if codebook.shape[0] == 0:
        raise EmptyCodebook("codebook has no rows")
    n, d_l = z.shape
    g = d_l // N_VQ_GROUPS
    groups = z.reshape(n, N_VQ_GROUPS, g)
    # [rows, 8, K, g] differences, a chunk of rows at a time; each row's
    # distances and argmin are its own, so the codes do not depend on the cut
    rows = max(1, DIST_BUDGET // max(1, N_VQ_GROUPS * codebook.shape[0] * g))
    codes = np.empty((n, N_VQ_GROUPS), dtype=np.intp)
    for lo in range(0, n, rows):
        diff = groups[lo:lo + rows, :, None, :] - codebook[None, None, :, :]
        codes[lo:lo + rows] = (diff * diff).sum(axis=-1).argmin(axis=-1)
    return codes, codebook[codes].reshape(n, d_l)


def vq_layer(z_e: Tensor, codebook: Tensor
             ) -> tuple[np.ndarray, Tensor, Tensor, Tensor]:
    """Differentiable quantization: straight-through output plus the
    codebook and commitment loss terms."""
    codes, _ = quantize_vectors(z_e.data, codebook.data)
    n, d_l = z_e.shape
    g = d_l // N_VQ_GROUPS
    rows = take(codebook, codes)                      # [N, 8, g], grads -> codebook
    # forward value exactly z_q, backward gradient copied to z_e
    st = straight_through(z_e, rows.data.reshape(n, d_l))
    groups_const = z_e.detach().reshape(n, N_VQ_GROUPS, g)
    diff_cb = rows - groups_const
    codebook_loss = (diff_cb * diff_cb).sum()
    diff_commit = z_e.reshape(n, N_VQ_GROUPS, g) - rows.detach()
    commit_loss = (diff_commit * diff_commit).sum()
    return codes, st, codebook_loss, commit_loss


def bar_units(seqs: TrackTokenSeqs) -> list[list[list[int]]]:
    """Token id runs per (track, bar): from each bar token up to the next."""
    out: list[list[list[int]]] = []
    for ti, ids in enumerate(seqs.seqs):
        length = seqs.lengths[ti]
        marks = seqs.bar_token_positions[ti]
        units: list[list[int]] = []
        for j, k in enumerate(marks):
            end = marks[j + 1] if j + 1 < len(marks) else length
            unit = [tid for tid in ids[k:end] if tid != PAD_ID]
            if unit and unit[-1] == EOS_ID:  # track frame, not bar content
                unit = unit[:-1]
            units.append(unit[:MAX_BAR_TOKENS])
        out.append(units)
    return out


def vq_spec(vocab_size: int, d: int, codebook_size: int) -> Spec:
    """The blocks `init_vq_params` draws for these sizes; the latent is d/2 wide."""
    d_latent = d // 2
    hidden = 4 * d_latent
    spec: Spec = {"vq_te": ((vocab_size, d_latent), 0.02)}
    _linear_block(spec, "vq_enc1", d_latent, hidden)
    _linear_block(spec, "vq_enc2", hidden, d_latent)
    spec["vq_codebook"] = ((codebook_size, d_latent // N_VQ_GROUPS), 0.5)
    _linear_block(spec, "vq_dec1", d_latent, hidden)
    _linear_block(spec, "vq_out", hidden, vocab_size)
    return spec


def init_vq_params(cfg: ModelConfig) -> dict[str, Tensor]:
    return draw_params(vq_spec(cfg.vocab_size, cfg.d, cfg.codebook_size),
                       cfg.seed + 17, cfg.dtype)


def _pad_units(units: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    width = max((len(u) for u in units), default=1)
    width = max(width, 1)
    ids = np.full((len(units), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(units), width), dtype=np.float64)
    for j, u in enumerate(units):
        ids[j, :len(u)] = u
        mask[j, :len(u)] = 1.0
    return ids, mask


def encode_units(ids: np.ndarray, mask: np.ndarray,
                 params: dict[str, Tensor]) -> Tensor:
    """Mean-pool embedded tokens (with positions) and project to z_e. An id
    outside `vq_te`'s rows raises `IdOutOfVocab`."""
    n, width = ids.shape
    table = params["vq_te"]
    check_ids(ids, table.shape[0])
    mask = mask.astype(table.data.dtype, copy=False)  # float64 would promote all
    emb = table[ids] + Tensor(
        sinusoidal_table(MAX_BAR_TOKENS, table.shape[1], mask.dtype.name)[:width])
    m = Tensor(mask[:, :, None])
    inv_counts = Tensor(1.0 / np.maximum(mask.sum(axis=1), 1.0)[:, None])
    pooled = (emb * m).sum(axis=1) * inv_counts
    h = _linear(pooled, params, "vq_enc1").relu()
    return _linear(h, params, "vq_enc2")


def decode_units(st: Tensor, width: int, params: dict[str, Tensor]) -> Tensor:
    """Per-position token logits [N, width, V] from the quantized latent."""
    h = _linear(st, params, "vq_dec1")
    n = h.shape[0]
    hidden = h.shape[1]
    pos = (h.reshape(n, 1, hidden) + Tensor(
        sinusoidal_table(MAX_BAR_TOKENS, hidden, h.data.dtype.name)[:width])).relu()
    return _linear(pos, params, "vq_out")


def vqvae_batch_loss(ids: np.ndarray, mask: np.ndarray,
                     params: dict[str, Tensor]) -> tuple[Tensor, int]:
    z_e = encode_units(ids, mask, params)
    codes, st, cb_loss, commit = vq_layer(z_e, params["vq_codebook"])
    logits = decode_units(st, ids.shape[1], params)
    n, width = ids.shape
    flat = logits.reshape(n * width, logits.shape[-1])
    recon, count = cross_entropy_logits(flat, ids.reshape(-1),
                                        mask.reshape(-1) > 0)
    total = recon + cb_loss + commit * COMMITMENT_WEIGHT
    return total, count


def train_vqvae(corpus: list[TrackTokenSeqs], cfg: ModelConfig,
                steps: int = 200, log=None) -> tuple[dict[str, Tensor], list[float]]:
    """Fit the autoencoder on all bar units of the corpus; returns the
    parameters and the per-step mean reconstruction-objective trace."""
    if steps < 0:
        raise UsageError(f"steps must not be negative, got {steps}")
    units: list[list[int]] = []
    for seqs in corpus:
        for track_units in bar_units(seqs):
            units.extend(track_units)
    units = [u for u in units if u]
    if not units:
        units = [[PAD_ID]]
    params = init_vq_params(cfg)
    opt = Adam(params, lr=1e-3)
    rng = np.random.default_rng(cfg.seed + 23)
    history: list[float] = []
    for step in range(steps):
        if len(units) > BATCH_UNITS:
            pick = rng.choice(len(units), size=BATCH_UNITS, replace=False)
            batch = [units[i] for i in pick]
        else:
            batch = units
        ids, mask = _pad_units(batch)
        loss, count = vqvae_batch_loss(ids, mask, params)
        opt.zero_grad()
        loss.backward()
        opt.step()
        history.append(float(loss.data) / max(1, count))
        if log and step % 20 == 0:
            log(f"vqvae step {step}: loss/token {history[-1]:.4f}")
    return params, history


def assign_codes(corpus: list[TrackTokenSeqs], params: dict[str, Tensor]
                 ) -> list[list[list[tuple[int, ...]]]]:
    """Deterministic 8-code tuples per (song, track, bar). The VQ blocks
    must fit the sizes that `vq_te` and `vq_codebook` give, and the latent
    width, `vq_te`'s, must split into 8 groups."""
    if "vq_te" not in params or "vq_codebook" not in params:
        raise DataError("assign_codes needs the VQ-VAE blocks, which these "
                        "parameters lack")
    vocab_size, d_latent = params["vq_te"].shape
    if d_latent % N_VQ_GROUPS:
        raise DataError(f"VQ latent width {d_latent} does not split into "
                        f"{N_VQ_GROUPS} groups")
    check_blocks(params, vq_spec(vocab_size, 2 * d_latent,
                                 params["vq_codebook"].shape[0]))
    out = []
    for seqs in corpus:
        song_codes: list[list[tuple[int, ...]]] = []
        for track_units in bar_units(seqs):
            if not track_units:
                song_codes.append([])
                continue
            ids, mask = _pad_units(track_units)
            with no_grad():
                z_e = encode_units(ids, mask, params)
            codes, _ = quantize_vectors(z_e.data, params["vq_codebook"].data)
            song_codes.append([tuple(int(c) for c in row) for row in codes])
        out.append(song_codes)
    return out
