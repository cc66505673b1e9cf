"""Control features: beat chords, per-bar descriptors, and learned VQ codes.

Extracts the raw per-(track, bar) feature grid from a song, quantizes it to
the fixed bin tables, and then fits the small vector-quantized autoencoder
whose per-bar code tuples form the second conditioning channel.
"""

from bandgen.features import extract_expert_features, quantize_features
from bandgen.neural.model import make_config
from bandgen.neural.vqvae import assign_codes, train_vqvae
from bandgen.synth import make_corpus, make_song
from bandgen.tokens import build_vocab, tokenize_song

song = make_song(seed=5, n_bars=8)
print(f"song: {len(song.tracks)} tracks, {song.n_bars} bars")

# chords are detected per beat from the union of pitched tracks
grid = extract_expert_features(song)
labels = [str(c) for c in grid.chords[:8]]
print(f"first two bars of chords (root pitch class : quality):")
print("  " + "  ".join(labels))

# raw descriptors: drums carry (dt, dd); pitched tracks (nd, mp, md, mv)
print("\nraw features for bar 0:")
for inst, row in zip(grid.instruments, grid.entries):
    cell = ", ".join(f"{k}={v:.1f}" for k, v in row[0].items())
    print(f"  {inst:<12} {cell}")

# quantized grid: every value becomes a bin index, chords join pitched cells
binned = quantize_features(grid)
print("\nbinned features for bar 0:")
for inst, row in zip(binned.instruments, binned.entries):
    cell = ", ".join(f"{k}={v}" for k, v in row[0].items())
    print(f"  {inst:<12} {cell}")

# fit the bar autoencoder on a small token corpus; loss is per token
vocab = build_vocab()
songs = make_corpus(6, n_bars=4, seed=9)
corpus = [tokenize_song(s, vocab) for s in songs]
cfg = make_config("toy")
params, history = train_vqvae(corpus, cfg, steps=300)
print(f"\nvq loss/token over 300 steps: {history[0]:.3f} -> "
      f"{history[150]:.3f} -> {history[-1]:.3f}")

# every (track, bar) gets a deterministic tuple of 8 codebook indices
codes = assign_codes(corpus, params)
print(f"codebook size {cfg.codebook_size}, codes for song 0 (hex digits):")
for track, track_codes in zip(songs[0].tracks, codes[0]):
    shown = " ".join("".join(f"{c:x}" for c in bar) for bar in track_codes)
    print(f"  {track.instrument:<12} {shown}")
used = {c for s in codes for tr in s for bar in tr for c in bar}
print(f"distinct codes in use across the corpus: {sorted(used)}")
