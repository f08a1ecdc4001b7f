"""Model zoo: the paper's five DNN workloads."""

from .bert import bert_base, bert_large
from .llm import LLM_SMALL, LlmConfig, llm_generation_plan
from .mobilenet import mobilenet_v2
from .resnet import resnet50, resnet101
from .transformer import transformer_xl
from .zoo import (
    DEFAULT_BATCH_SIZES,
    MODEL_NAMES,
    NLP_MODELS,
    VISION_MODELS,
    batch_size_for,
)

__all__ = [
    "resnet50",
    "resnet101",
    "mobilenet_v2",
    "bert_base",
    "bert_large",
    "transformer_xl",
    "LlmConfig",
    "LLM_SMALL",
    "llm_generation_plan",
    "batch_size_for",
    "MODEL_NAMES",
    "VISION_MODELS",
    "NLP_MODELS",
    "DEFAULT_BATCH_SIZES",
]
