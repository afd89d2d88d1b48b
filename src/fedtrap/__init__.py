"""fedtrap: a federated-learning attack laboratory.

A dishonest aggregation server plants a small ReLU trap subnetwork in the
model parameters it hands to a client; after one round of ordinary local
training the change (or exact non-change) of a single monitored parameter
reveals whether a chosen target sample was in the client's training data.
"""

from .attack import AttackOutcome, decide, decision_statistic, reference_eps, run_attack
from .datasets import (Dataset, DuplicateReport, RunDraw, find_exact_duplicates, load_cifar,
                       load_mnist_idx, sample_run, synth_dataset)
from .fedsim import ClientConfig, client_train
from .harness import (ExperimentConfig, MetricsReport, RunRecord, compute_metrics,
                      emit_results, run_experiment)
from .network import Network, conv_net, dense_net, small_conv_net
from .optim import adam_step, sgd_step
from .trap import TrapSpec, craft_parameters, epsilon_flat_index, select_components

__version__ = "0.1.0"

__all__ = [
    "AttackOutcome", "decide", "decision_statistic",
    "reference_eps", "run_attack",
    "Dataset", "DuplicateReport", "RunDraw", "find_exact_duplicates",
    "load_cifar", "load_mnist_idx", "sample_run", "synth_dataset",
    "ClientConfig", "client_train",
    "ExperimentConfig", "MetricsReport", "RunRecord", "compute_metrics",
    "emit_results", "run_experiment",
    "Network", "conv_net", "dense_net", "small_conv_net",
    "adam_step", "sgd_step",
    "TrapSpec", "craft_parameters", "epsilon_flat_index", "select_components",
]
