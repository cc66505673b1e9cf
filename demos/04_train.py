"""Train the conditional multi-track model and round-trip a checkpoint.

Builds (token, feature) pairs from a tiny corpus, runs a short full-batch
training loop with the toy preset, and verifies that a saved checkpoint
reloads to bit-identical parameters and the same loss.
"""

import math
import tempfile
from pathlib import Path

from bandgen.features import extract_expert_features, quantize_features
from bandgen.neural.checkpoint import (load_checkpoint_file,
                                       save_checkpoint_file)
from bandgen.neural.model import make_config
from bandgen.neural.training import mean_loss, train_model
from bandgen.synth import make_corpus
from bandgen.tokens import build_vocab, tokenize_song

vocab = build_vocab()
songs = make_corpus(n_songs=6, n_bars=4, seed=7)
pairs = [(tokenize_song(s, vocab),
          quantize_features(extract_expert_features(s))) for s in songs]
print(f"{len(pairs)} training pairs, longest sequence "
      f"{max(p[0].length for p in pairs)} tokens")

cfg = make_config("toy")
print(f"toy preset: d={cfg.d}, heads={cfg.heads}, "
      f"vocab={cfg.vocab_size}, lr={cfg.lr}")

# a random model scores close to uniform chance, ln(vocab)
params, history = train_model(pairs, cfg, steps=60, log=print)
print(f"chance level ln({cfg.vocab_size}) = {math.log(cfg.vocab_size):.3f}")
print(f"loss/token: {history[0]:.3f} -> {history[-1]:.3f}")

# checkpoints hold every parameter plus the config that shaped them
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.ckpt"
    save_checkpoint_file(str(path), params, cfg)
    print(f"\ncheckpoint: {path.stat().st_size} bytes")
    loaded, loaded_cfg = load_checkpoint_file(str(path))

same = all((params[k].data == loaded[k].data).all() for k in params)
print(f"parameters identical after reload: {same}")
print(f"config round trip: {loaded_cfg == cfg}")
print(f"loss from reloaded params: {mean_loss(pairs, loaded, loaded_cfg):.3f} "
      f"(in-memory {mean_loss(pairs, params, cfg):.3f})")
