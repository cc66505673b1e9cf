"""Multi-track tokenization, the interleaved baseline, and BPE compression.

Shows the per-track token layout next to the single-sequence baseline,
then learns a byte-pair vocabulary on a small corpus and reports how much
shorter the note runs get.
"""

from bandgen.bpe import bpe_decode, bpe_encode, learn_bpe
from bandgen.synth import make_corpus
from bandgen.tokens import (build_vocab, corpus_stats, detokenize,
                            tokenize_remi_plus, tokenize_song)

vocab = build_vocab()
print(f"base vocabulary: {vocab.size} tokens")

corpus = make_corpus(n_songs=12, n_bars=8, seed=3)
song = corpus[0]

# per-track tokenization: one sequence per instrument, padded to a common T
tt = tokenize_song(song, vocab)
print(f"\nper-track sequences for a {song.n_bars}-bar song:")
for track, n in zip(song.tracks, tt.lengths):
    print(f"  {track.instrument:<12} {n:>4} tokens (padded to {tt.length})")

# the baseline interleaves every track into one long sequence
flat = tokenize_remi_plus(song, vocab)
longest = max(tt.lengths)
print(f"interleaved baseline: {len(flat)} tokens in one sequence")
print(f"longest parallel sequence: {longest} "
      f"({longest / len(flat):.2f}x the baseline length)")

# round trip sanity: decode the per-track ids back into a song
recovered = detokenize(tt, vocab)
print(f"decoded back: {recovered.note_count()} notes "
      f"(original {song.note_count()})")

# learn pair merges on the whole corpus, growing the vocab to 500 ids
all_tts = [tokenize_song(s, vocab) for s in corpus]
model = learn_bpe(all_tts, vocab, target_size=500)
print(f"\nlearned {len(model.merges)} merges "
      f"(vocab {vocab.size} -> {model.vocab_size})")

raw_tracks = [ids[:n] for t in all_tts for ids, n in zip(t.seqs, t.lengths)]
encoded = [bpe_encode(ids, model, vocab) for ids in raw_tracks]
before = sum(len(ids) for ids in raw_tracks)
after = sum(len(ids) for ids in encoded)
print(f"corpus tokens: {before} -> {after} (ratio {after / before:.3f})")

# decode(encode(x)) must reproduce the raw ids exactly
ok = all(bpe_decode(e, model) == ids
         for ids, e in zip(raw_tracks, encoded))
print(f"bpe round trip exact: {ok}")

# corpus statistics: parallel layout vs the interleaved baseline
notes = [s.note_count() for s in corpus]
beats = [s.n_bars * 4 for s in corpus]
par = corpus_stats(all_tts, notes, beats, vocab.size)
base = corpus_stats([tokenize_remi_plus(s, vocab) for s in corpus],
                    notes, beats, vocab.size)
print(f"\n{'':<12} {'tok/beat':>9} {'tok/note':>9} {'avg len':>8}")
for label, st in [("parallel", par), ("interleaved", base)]:
    print(f"{label:<12} {st.tok_per_beat:>9.2f} "
          f"{st.tok_per_note:>9.2f} {st.avg_len:>8.1f}")
print(f"sequence length ratio: {par.avg_len / base.avg_len:.3f}")
