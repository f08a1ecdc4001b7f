"""Workload registry: the paper's five models with Table 1 batch sizes.

The lowered op plan for one inference request or one training
iteration of each model (reached through
:func:`repro.workloads.registry.build_plan`) uses the exact batch sizes of
Table 1 (inference: ResNet50/MobileNetV2/ResNet101/Transformer batch 4,
BERT-large batch 2; training: ResNet50/101 batch 32, MobileNetV2 batch
64, BERT-base and Transformer batch 8).  Plans are cached — building
ResNet-101's ~700-kernel training trace is not free.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from repro.frameworks.lowering import OpPlan, lower_inference, lower_training
from repro.frameworks.module import Module

from .bert import BERT_SEQ_LEN, bert_base, bert_large
from .mobilenet import mobilenet_v2
from .resnet import resnet50, resnet101
from .transformer import TRANSFORMER_SEQ_LEN, transformer_xl

__all__ = ["MODEL_NAMES", "VISION_MODELS", "NLP_MODELS",
           "batch_size_for", "DEFAULT_BATCH_SIZES"]

MODEL_NAMES = ("resnet50", "mobilenet_v2", "resnet101", "bert", "transformer")
VISION_MODELS = ("resnet50", "mobilenet_v2", "resnet101")
NLP_MODELS = ("bert", "transformer")

# Table 1 of the paper.
DEFAULT_BATCH_SIZES: Dict[Tuple[str, str], int] = {
    ("resnet50", "inference"): 4,
    ("mobilenet_v2", "inference"): 4,
    ("resnet101", "inference"): 4,
    ("bert", "inference"): 2,
    ("transformer", "inference"): 4,
    ("resnet50", "training"): 32,
    ("mobilenet_v2", "training"): 64,
    ("resnet101", "training"): 32,
    ("bert", "training"): 8,
    ("transformer", "training"): 8,
}


def batch_size_for(model: str, kind: str) -> int:
    try:
        return DEFAULT_BATCH_SIZES[(model, kind)]
    except KeyError:
        raise KeyError(f"no default batch size for ({model!r}, {kind!r})") from None


def _build_model(model: str, kind: str) -> Module:
    if model == "resnet50":
        return resnet50()
    if model == "resnet101":
        return resnet101()
    if model == "mobilenet_v2":
        return mobilenet_v2()
    if model == "bert":
        # Paper: BERT-large for inference, BERT-base ("basic") for training.
        return bert_large() if kind == "inference" else bert_base()
    if model == "transformer":
        return transformer_xl()
    raise KeyError(f"unknown model {model!r}; known: {MODEL_NAMES}")


def _input_shape(model: str, batch: int) -> Tuple[int, ...]:
    if model in VISION_MODELS:
        return (batch, 3, 224, 224)
    if model == "bert":
        return (batch, BERT_SEQ_LEN)
    if model == "transformer":
        return (batch, TRANSFORMER_SEQ_LEN)
    raise KeyError(f"unknown model {model!r}")


@lru_cache(maxsize=None)
def _cached_plan(model: str, kind: str, batch_size: int = 0) -> OpPlan:
    """Lowered plan for one request/iteration of ``model``.

    ``batch_size`` of 0 selects the paper's Table 1 default.
    """
    if kind not in ("inference", "training"):
        raise ValueError(f"kind must be inference|training, got {kind!r}")
    batch = batch_size or batch_size_for(model, kind)
    module = _build_model(model, kind)
    shape = _input_shape(model, batch)
    if kind == "inference":
        return lower_inference(module, shape, f"{model}-inf-b{batch}")
    return lower_training(module, shape, f"{model}-train-b{batch}")
