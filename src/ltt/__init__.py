"""Episodic low-rank test-time training for a miniature dual-encoder classifier."""

__version__ = "0.1.0"

from .data import Instance
from .encoder import ClipModel, TextConfig, TextFeatureTable, VitConfig, Vocab
from .lora import AdaptedEncoder, LoraConfig, trainable_parameter_count
from .optim import AdamW
from .tensor import Tape, Tensor, backward, no_grad
from .ttt import TttConfig, run_episode, run_stream

__all__ = [
    "AdaptedEncoder", "AdamW", "ClipModel", "Instance", "LoraConfig", "Tape",
    "Tensor", "TextConfig", "TextFeatureTable", "TttConfig", "VitConfig",
    "Vocab", "backward", "no_grad", "run_episode", "run_stream",
    "trainable_parameter_count", "__version__",
]
