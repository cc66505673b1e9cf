"""Self-describing binary checkpoints.

Layout: magic "BGCK", format version, UTF-8 config block, then each named
block as (name, shape, row-major little-endian payload), in sorted name
order. A payload holds float32 or float64 values, as the config's `dtype`
says. A config without a `dtype` line is float64: every checkpoint written
before the key existed loads as it did, so the version stays 4, and a
reader older than the key refuses it as unknown. Loading reproduces every
array bit-exactly. Every block is a trained weight; fixed position tables
are recomputed from the config. A repeated block name or bytes after the
last block make a blob malformed.

Older versions are refused. Version 1 stored the position tables as
blocks; version 2 configs carried `use_ctt`, `lr_max` and `preset` (now
`layers_ctt = 0` is the cross-track switch, `lr` the warmup peak); version
3 configs carried the widths `e_ct` .. `e_vq` and `d_latent`, which now
follow `d`, and `n_tracks` and `lr_min`, now `score.MAX_TRACKS` and
`optim.LR_MIN`.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import DataError
from .autograd import Tensor
from .model import ModelConfig, dump_config, load_config

_MAGIC = b"BGCK"
_VERSION = 4
_PAYLOAD = {"float32": "<f4", "float64": "<f8"}  # by config dtype


def _pack_bytes(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


def dump_checkpoint(params: dict[str, Tensor], config: ModelConfig) -> bytes:
    out = [_MAGIC, struct.pack("<I", _VERSION)]
    out.append(_pack_bytes(dump_config(config).encode("utf-8")))
    out.append(struct.pack("<I", len(params)))
    payload = _PAYLOAD[config.dtype]
    for name in sorted(params):
        data = np.ascontiguousarray(params[name].data, dtype=payload)
        out.append(_pack_bytes(name.encode("utf-8")))
        out.append(struct.pack("<I", data.ndim))
        out.append(struct.pack(f"<{data.ndim}I", *data.shape))
        out.append(_pack_bytes(data.tobytes()))
    return b"".join(out)


class _Cursor:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise DataError("checkpoint truncated")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def block(self) -> bytes:
        return self.take(self.u32())


def load_checkpoint(blob: bytes) -> tuple[dict[str, Tensor], ModelConfig]:
    try:
        return _parse(_Cursor(blob))
    except ValueError as e:  # bad UTF-8, or a payload that misfits its shape
        raise DataError(f"checkpoint: {e}") from e


def _parse(cur: _Cursor) -> tuple[dict[str, Tensor], ModelConfig]:
    if cur.take(4) != _MAGIC:
        raise DataError("not a checkpoint file")
    version = cur.u32()
    if version != _VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    config = load_config(cur.block().decode("utf-8"))
    payload = _PAYLOAD[config.dtype]
    n_params = cur.u32()
    params: dict[str, Tensor] = {}
    for _ in range(n_params):
        name = cur.block().decode("utf-8")
        if name in params:
            raise DataError(f"checkpoint: block {name!r} repeats")
        ndim = cur.u32()
        shape = struct.unpack(f"<{ndim}I", cur.take(4 * ndim))
        data = np.frombuffer(cur.block(), dtype=payload).reshape(shape).copy()
        params[name] = Tensor(data, requires_grad=True)
    if cur.pos != len(cur.blob):
        raise DataError("checkpoint: trailing bytes after the last block")
    return params, config


def save_checkpoint_file(path: str, params: dict[str, Tensor],
                         config: ModelConfig) -> None:
    with open(path, "wb") as f:
        f.write(dump_checkpoint(params, config))


def load_checkpoint_file(path: str) -> tuple[dict[str, Tensor], ModelConfig]:
    with open(path, "rb") as f:
        return load_checkpoint(f.read())
