import ast
import re
from pathlib import Path

import tokenchain

# The package's public names.  A name added or removed here is a library
# contract change, to be recorded as one.
PUBLIC_API = [
    "BoundOverflowError", "ChainOracle", "ChainSpec", "ConvergenceProfile",
    "DepthBoundParams", "FrequentistEstimator", "IclBoundParams",
    "MixingReport", "MockOracleServer", "ModelCard", "NgramEstimator",
    "NgramOracle", "Oracle", "OracleError", "PowerLawFit",
    "PretrainBoundParams", "RandomLogitOracle", "RemoteOracle",
    "RemoteOracleConfig", "RemoteOracleError", "RiskCurve",
    "StationaryResult", "StructureReport", "ToyModel", "ToyModelConfig",
    "TrainingDivergedError", "Trajectory", "TransitionMatrix",
    "UniformOracle", "VocabSpec", "__version__", "apply_temperature",
    "approximation_error", "build_chain", "build_qf", "builtin_model_cards",
    "classify_states", "clique_rim", "constrained_walk",
    "convergence_profile", "depth_constant", "discretize",
    "doeblin_epsilon", "envelope", "fit_ngram",
    "fit_power_law", "frequentist_estimate", "generalization_gap",
    "icl_constant", "icl_gap", "icl_risk_curve", "kl_divergence", "kl_risk",
    "layer_bound", "log_ratio_checks", "mc_verify", "mcdiarmid_markov_tail",
    "mcdiarmid_tail", "mixing_report", "parity_sequence", "polygonal_walk",
    "predictor_table", "pretrain_constant", "random_chain",
    "sample_complexity", "sample_trajectory",
    "simulate_process", "stationary", "successors", "sweep_temperature",
    "train_toy", "tv_distance", "tv_risk", "validate_distribution",
    "validate_structure", "windowed_examples",
]

# The newline count of src/tokenchain/*.py, as `wc -l` reports it.  The
# library should shrink, not grow: raising this pin is a recorded change.
SRC_LINES = 3895


def test_public_names_are_pinned():
    assert sorted(tokenchain.__all__) == PUBLIC_API


def test_modules_use_every_name_they_import():
    """No module of the package but ``__init__`` imports a name it never
    reads, ``from __future__`` imports aside."""
    unused = []
    for path in sorted(Path(tokenchain.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported.update(alias.asname or alias.name
                                for alias in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


def test_src_line_budget():
    package = Path(tokenchain.__file__).parent
    lines = sum(path.read_bytes().count(b"\n")
                for path in package.glob("*.py"))
    assert lines <= SRC_LINES


def test_every_chain_has_one_layout():
    """No module tells a dense chain from a table: every TransitionMatrix
    is the next-token table of its VocabSpec."""
    package = Path(tokenchain.__file__).parent
    # the brackets keep this file from matching its own pattern
    second_layout = re.compile(r"is_tab[l]e|spec is [N]one")
    found = [f"{path.name}:{i}" for path in sorted(package.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if second_layout.search(line)]
    assert found == []
