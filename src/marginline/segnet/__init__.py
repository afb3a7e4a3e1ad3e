from .loss import cross_entropy, generalized_dice_loss, loss_grad_logits, loss_value
from .network import NetworkParams, ShapeMismatch, architecture, backward, forward
from .train import (
    COMPUTE_DTYPE,
    LEARNING_RATE,
    Adam,
    kfold_split,
    sample_loss_and_grads,
    thread_map,
    train_fold,
    train_kfold,
    write_history_csv,
)
