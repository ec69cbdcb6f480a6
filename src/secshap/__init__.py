"""Secure Shapley-value calculation for cross-silo federated learning.

A library plus CLI simulator: four end-to-end evaluation protocols
(plaintext baseline, one-server fully-encrypted, two-server hybrid with
sample skipping, two-server pure secret sharing), two ciphertext-packing
matrix-multiplication kernels, additive secret sharing with Beaver
triples, and exact operation/communication metering throughout.
"""

from .federation import (
    ClientDataset,
    RoundModels,
    dirichlet_partition,
    fedavg_train,
    make_synthetic_dataset,
)
from .hebackend import CipherVector, CostMeter, CostWeights, HEContext, HEParams
from .kernels import MatMulPlan, delta_reference, plan_reducing, plan_squaring
from .matrix import matmul_oracle
from .models import LayerSpec, Model, arch_cnn_like, arch_logistic, arch_mlp
from .protocols import run_hesv, run_nssv, run_secretsv, run_secsv
from .report import ContributionReport, report_to_json
from .sharing import BeaverTriple, FieldParams, SharePair, TripleSupply
from .shapley import (
    UtilityTable,
    find_skippable,
    fsv_aggregate,
    fsv_error,
    permutation_sampling_ssv,
    sample_skip_round,
    ssv_exact,
)

__version__ = "0.1.0"

__all__ = [
    "ClientDataset",
    "RoundModels",
    "dirichlet_partition",
    "fedavg_train",
    "make_synthetic_dataset",
    "CipherVector",
    "CostMeter",
    "CostWeights",
    "HEContext",
    "HEParams",
    "MatMulPlan",
    "delta_reference",
    "plan_reducing",
    "plan_squaring",
    "matmul_oracle",
    "LayerSpec",
    "Model",
    "arch_cnn_like",
    "arch_logistic",
    "arch_mlp",
    "run_hesv",
    "run_nssv",
    "run_secretsv",
    "run_secsv",
    "ContributionReport",
    "report_to_json",
    "BeaverTriple",
    "FieldParams",
    "SharePair",
    "TripleSupply",
    "UtilityTable",
    "find_skippable",
    "fsv_aggregate",
    "fsv_error",
    "permutation_sampling_ssv",
    "sample_skip_round",
    "ssv_exact",
]
