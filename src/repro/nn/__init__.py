"""Mini deep-learning framework: numpy autograd, modules, transformers."""

from . import functional
from .checkpoint import (checkpointed_classifier_loss, checkpointed_lm_loss,
                         checkpointed_loss)
from .data import (ClassificationDataset, GLUE_TASKS, make_classification_dataset,
                   make_glue_suite, make_lm_dataset)
from .models import ModelSpec, ZOO, get_model, models_by_family
from .modules import (Dropout, Embedding, LayerNorm, Linear, Module,
                      Parameter, Sequential)
from .offload import (ActivationSpillStore, activation_spill_scope,
                      active_spill_store)
from .precision import (LossScaler, clip_gradients, from_fp16,
                        global_grad_norm, to_fp16)
from .tensor import (Tensor, concatenate, is_grad_enabled, no_grad,
                     ones, tensor, zeros)
from .transformer import (LanguageModel, MultiHeadAttention, SequenceClassifier,
                          TransformerBackbone, TransformerBlock,
                          TransformerConfig, bert_config, bloom_config,
                          gpt2_config, vit_config)

__all__ = [
    "ActivationSpillStore",
    "ClassificationDataset",
    "activation_spill_scope",
    "active_spill_store",
    "Dropout",
    "Embedding",
    "GLUE_TASKS",
    "LanguageModel",
    "LayerNorm",
    "Linear",
    "LossScaler",
    "ModelSpec",
    "Module",
    "MultiHeadAttention",
    "Parameter",
    "SequenceClassifier",
    "Sequential",
    "Tensor",
    "TransformerBackbone",
    "TransformerBlock",
    "TransformerConfig",
    "ZOO",
    "bert_config",
    "checkpointed_classifier_loss",
    "checkpointed_lm_loss",
    "checkpointed_loss",
    "bloom_config",
    "clip_gradients",
    "concatenate",
    "from_fp16",
    "functional",
    "get_model",
    "global_grad_norm",
    "gpt2_config",
    "is_grad_enabled",
    "make_classification_dataset",
    "make_glue_suite",
    "make_lm_dataset",
    "models_by_family",
    "no_grad",
    "ones",
    "tensor",
    "to_fp16",
    "vit_config",
    "zeros",
]
