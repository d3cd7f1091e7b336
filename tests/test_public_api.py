"""The public surface of liftlab, pinned: exported names, the attributes of the
four value types and the CLI options. A change that adds or drops any of them
has to change this file too. So does one that adds a top-level library
definition that only tests call, or a defaulted parameter that only tests set.
No library module reads the environment."""
import argparse
import ast
import math
import types
from pathlib import Path

import liftlab as ll
from liftlab import cli

PUBLIC_NAMES = [
    "CharacterizationError", "CharacterizationReport", "CheegerReport", "DyadicDecomposition",
    "ExperimentConfig", "ExperimentReport", "FormatError", "GenerationError",
    "GrowthTrajectory", "InvalidParameterError", "LiftAssignment", "LiftLabError",
    "LiftedGraph", "MatchingError", "MixingReport", "NumericalError", "OldNewSplit",
    "RegularGraph", "SearchError", "ShiftAssignment", "Signing", "SigningSearchResult",
    "SizeLimitError", "Spectrum", "SpotCheckReport", "TrialRecord", "adjacency_matrix",
    "build_lift", "build_shift_lift", "cheeger_check", "complete_bipartite", "complete_graph",
    "cycle_graph", "discretize", "disjoint_copies", "dyadic_decompose",
    "dyadic_round", "edge_endpoints", "eig_symmetric", "eml_check",
    "exhaustive_signing_search", "geometric_log_sum_bound", "greedy_lift_growth",
    "lambda_new_from_fibers", "lambda_new_from_roots", "lambda_nontrivial",
    "lambda_nontrivial_sparse", "lemma_inequality_spot_check", "max_multiset_mismatch",
    "random_k_lift", "random_regular", "random_shift_lift", "random_signing",
    "resolve_base_graph", "run_lift_trials", "shift_to_assignment", "sign_sum_stats",
    "signed_adjacency", "signing_to_assignment", "signing_to_shifts", "spectral_radius",
    "split_old_new", "splitmix64", "support", "trial_seed", "two_lift_block_matrix",
    "verify_characterization",
]

# Top-level library definitions that no library module and no bench script
# names, each with the acceptance criterion or test file that calls it.
TEST_ONLY_DEFINITIONS = {
    "two_lift_block_matrix": "criterion 2",
    "dyadic_decompose": "criterion 9 and test_toolkit.py",
    "discretize": "criterion 9 and test_toolkit.py",
    "geometric_log_sum_bound": "criterion 9 and test_toolkit.py",
    "sign_sum_stats": "criterion 10",
}

VALUE_TYPE_ATTRIBUTES = {
    "RegularGraph": ["d", "edge_array", "edges", "n", "num_edges"],
    "Signing": ["sign_array", "signs"],
    "ShiftAssignment": ["k", "shift_array", "shifts"],
    "LiftAssignment": ["k", "perm_array", "perms"],
}

CLI_OPTIONS = {
    "gen": ["--copies", "--d", "--family", "--m", "--n", "--out", "--seed"],
    "lift": ["--assignment", "--graph", "--k", "--mode", "--out", "--save-assignment",
             "--seed"],
    "spec": ["--graph", "--out"],
    "verify-shift": ["--assignment", "--graph", "--k", "--out", "--shifts", "--tol"],
    "eml": ["--bipartite", "--graph", "--method", "--out", "--samples", "--seed"],
    "cheeger": ["--graph", "--out"],
    "mc": ["--base", "--config", "--constants", "--copies", "--csv", "--k", "--mode", "--out",
           "--seed", "--threads", "--trials"],
    "search-signing": ["--graph", "--out"],
    "grow": ["--graph", "--k", "--levels", "--out", "--samples", "--seed"],
    "lemma-check": ["--graph", "--out", "--seed", "--trials", "--which"],
}


def test_public_names_are_pinned():
    # submodules become package attributes once imported anywhere, so they
    # are not counted as exported names
    names = sorted(name for name, value in vars(ll).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_value_type_attributes_are_pinned():
    g = ll.complete_graph(4)
    values = [g, ll.random_signing(g, 1), ll.random_shift_lift(g, 3, 1), ll.random_k_lift(g, 3, 1)]
    got = {type(v).__name__: sorted(a for a in dir(v) if not a.startswith("_")) for v in values}
    assert got == VALUE_TYPE_ATTRIBUTES


def test_cli_options_are_pinned():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in p._actions for o in a.option_strings if o.startswith("--")
                        and o != "--help")
           for name, p in sub.choices.items()}
    assert got == CLI_OPTIONS


def test_no_library_module_reads_the_environment():
    src = Path(ll.__file__).parent
    reads = []
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [f"{path.name}: {name}" for name in names
                      if name in ("environ", "environb", "getenv", "getenvb")]
    assert reads == []


def test_each_test_only_definition_is_called_by_an_acceptance_criterion():
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    named = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
    assert set(TEST_ONLY_DEFINITIONS) - named == set()


def test_no_other_library_definition_is_test_only():
    src = Path(ll.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "bench"
    defined, named = set(), set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for path in [*src.glob("*.py"), *bench.glob("*.py")]:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named |= {alias.name for alias in node.names}
    assert defined - named == set(TEST_ONLY_DEFINITIONS)


def test_no_library_default_is_set_only_by_tests():
    # a defaulted parameter that no library or bench call passes has one value
    # in use, so it is a constant; a test that needs another monkeypatches it
    src = Path(ll.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "bench"
    defaulted = {}  # function -> [(position, or None if keyword-only, name)]
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name not in TEST_ONLY_DEFINITIONS:
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                first = len(positional) - len(a.defaults)
                defaulted[node.name] = list(enumerate(positional))[first:] + [
                    (None, p.arg) for p, default in zip(a.kwonlyargs, a.kw_defaults) if default]
    most = {}  # callee name -> the most positional arguments of one call
    keywords = set()  # (callee name, keyword); keyword None: a ** mapping
    for path in [*src.glob("*.py"), *bench.glob("*.py")]:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                most[name] = max(most.get(name, 0), math.inf if starred else len(node.args))
                keywords |= {(name, kw.arg) for kw in node.keywords}
    unset = [f"{func}({param})" for func, params in sorted(defaulted.items())
             for i, param in params
             if not ((i is not None and i < most.get(func, 0))
                     or {(func, param), (func, None)} & keywords)]
    assert unset == []
