"""Numpy sequence model: autograd, architecture, VQ features, training,
sampling, and checkpoints."""

from .autograd import Tensor, no_grad
from .checkpoint import (dump_checkpoint, load_checkpoint,
                         load_checkpoint_file, save_checkpoint_file)
from .model import (DecodeCache, ModelConfig, bar_similarity, bottom_decode,
                    check_blocks, ctt_forward, dump_config, embed_conditions,
                    embed_tokens, encode_features, expand_similarity,
                    init_params, load_config, make_config, model_forward,
                    model_spec, project_logits, se_attention, sequence_loss,
                    top_decode)
from .optim import Adam, schedule_lr
from .sampling import (GenerationResult, SampleEvent, generate,
                       repair_track_ids, top_k_count)
from .training import batch_loss, gradient_check, mean_loss, train_model, train_step
from .vqvae import (assign_codes, bar_units, quantize_vectors, train_vqvae,
                    vq_layer)

__all__ = [
    "Adam", "DecodeCache", "GenerationResult", "ModelConfig", "SampleEvent",
    "Tensor",
    "assign_codes", "bar_similarity", "bar_units", "batch_loss",
    "bottom_decode", "check_blocks", "ctt_forward", "dump_checkpoint",
    "dump_config", "embed_conditions", "embed_tokens", "encode_features",
    "expand_similarity", "generate", "gradient_check", "init_params",
    "load_checkpoint", "load_checkpoint_file", "load_config",
    "make_config", "mean_loss", "model_forward", "model_spec", "no_grad",
    "project_logits", "quantize_vectors", "repair_track_ids",
    "save_checkpoint_file", "schedule_lr", "se_attention", "sequence_loss",
    "top_decode", "top_k_count", "train_model",
    "train_step", "train_vqvae", "vq_layer",
]
