"""Generate conditioned covers and score them against their references.

Trains the toy model briefly, extracts the control grid from short
reference songs, samples covers track-by-track in lockstep, and reports
each cover's generation speed and its fidelity metrics against its
reference.
"""

from bandgen.features import extract_expert_features, quantize_features
from bandgen.metrics import evaluate_pair, mean_report, report_text
from bandgen.neural.model import make_config
from bandgen.neural.sampling import generate, top_k_count
from bandgen.neural.training import train_model
from bandgen.synth import make_corpus, make_song
from bandgen.tokens import build_vocab, detokenize, tokenize_song

vocab = build_vocab()
cfg = make_config("toy")

songs = make_corpus(n_songs=6, n_bars=2, seed=7)
pairs = [(tokenize_song(s, vocab),
          quantize_features(extract_expert_features(s))) for s in songs]
params, history = train_model(pairs, cfg, steps=250)
print(f"trained 250 steps, loss/token {history[0]:.3f} -> {history[-1]:.3f}")

k = top_k_count(cfg.vocab_size)
print(f"sampling from the top {k} of {cfg.vocab_size} tokens\n")

# each reference contributes only its control features, never its tokens
reports = []
for i in range(3):
    ref = make_song(seed=100 + i, n_bars=2)
    grid = quantize_features(extract_expert_features(ref))
    result = generate(grid, params, cfg, vocab, seed=i, t_max=128)
    cover = detokenize(result.seqs, vocab)
    rep = evaluate_pair(ref, cover)
    reports.append(rep)
    tok_s = result.tokens_generated / max(result.wall_seconds, 1e-9)
    print(f"cover {i}: {cover.n_bars} bars, {cover.note_count()} notes, "
          f"{result.tokens_generated} tokens in {result.wall_seconds:.1f}s "
          f"({tok_s:.0f} tok/s), {result.repairs} repairs")
    print(f"  nde={rep.nde:.3f} oap={rep.oap:.3f} ccs={rep.ccs:.3f} "
          f"gcs={rep.gcs:.3f} ca={rep.ca:.3f} ssmd={rep.ssmd:.3f}")

print("\nmean over the three pairs:")
print(report_text(mean_report(reports)))

# a song compared against itself scores perfectly on every bounded metric
ref = make_song(seed=100, n_bars=2)
perfect = evaluate_pair(ref, ref)
print("self comparison: "
      f"nde={perfect.nde} oap={perfect.oap} ccs={perfect.ccs} "
      f"gcs={perfect.gcs} ca={perfect.ca} ssmd={perfect.ssmd}")
