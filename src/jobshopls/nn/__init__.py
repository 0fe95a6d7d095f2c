"""Neural policy: autodiff engine and the graph Q-network."""
from . import autodiff
from .autodiff import Tensor
from .qnetwork import (
    GNNConfig,
    QNetwork,
    encode,
    load_checkpoint,
    q_values,
    save_checkpoint,
)

__all__ = [
    "autodiff",
    "Tensor",
    "GNNConfig",
    "QNetwork",
    "encode",
    "load_checkpoint",
    "q_values",
    "save_checkpoint",
]
