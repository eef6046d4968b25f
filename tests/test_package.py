"""The package namespace: one list of public names, built from the modules."""

import ast
from pathlib import Path

import morseband
from morseband import algebra, coherent, errors, model, moments, quadrature, specfun, states, verify

MODULES = (errors, specfun, quadrature, model, states, algebra, coherent, moments, verify)

# The public API; removing a name from it is a deliberate, visible change.
PUBLIC_NAMES = {
    "AccuracyLossError", "AgreementReport", "CheckResult",
    "CoherentSpec", "ConfigError", "ConvergenceError", "CrossCheckError", "DEFAULT_TOLERANCES",
    "DegeneracyReport", "DegeneracyTable", "DomainError", "FD_MARGIN", "GridMismatchError", "GridSpec",
    "IntegrationResult", "LandauParams", "MomentSet", "MorsebandError",
    "PhysParams", "QuantumNumbers", "RangeError", "SUITE_NAMES",
    "SampledState", "__version__", "algebra_grid", "apply_L3",
    "apply_Lminus", "apply_Lplus", "apply_casimir", "apply_hamiltonian",
    "assoc_bessel", "assoc_bessel_rodrigues", "bessel_i", "bessel_j", "bessel_k",
    "bg_coefficients", "bg_measure_density", "bg_state_closed", "bg_state_series",
    "commutator_residual", "default_coherent_grid", "default_grid",
    "default_moments_grid", "default_truncation", "degeneracy_scan", "digamma",
    "energy", "fd_derivative", "grid_inner_product",
    "hermite", "identity_resolution_check",
    "integrate_semi_infinite_u", "laguerre", "laguerre_deriv",
    "landau_a0", "landau_delta", "landau_energy", "landau_limit_error",
    "landau_state_asym", "landau_state_sym",
    "ln_gamma", "log_weighted_gamma_integral", "measure_weight", "moments_closed",
    "moments_quadrature", "ode_residual", "radial_identity_integral",
    "resolve_tolerances", "run_suite", "series_closed_agreement",
    "spectrum_product", "thread_budget", "trigamma",
    "wavefunction", "weighted_norm",
}


def test_all_is_the_modules_all_without_duplicates():
    expected = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert morseband.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_public_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(morseband, name) is getattr(module, name)
    assert set(morseband.__all__) == PUBLIC_NAMES


def _identifiers(node: ast.AST) -> set[str]:
    """The names and attribute names under node, and the names its imports take."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def _private_definitions(stmt: ast.stmt) -> list[str]:
    """The private names a top-level statement defines: a function, a class,
    or a constant assigned by ``_NAME = ...`` (tuple targets included)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_no_unused_import_or_private_definition():
    # dead code: a name a module imports and never uses, or a private
    # top-level function, class or constant that no other statement of the
    # package names
    src = Path(morseband.__file__).parent
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    dead = []
    for name, tree in modules.items():
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for sub in ast.walk(tree):
            if isinstance(sub, (ast.Import, ast.ImportFrom)) and getattr(sub, "module", None) != "__future__":
                bound = {alias.asname or alias.name.partition(".")[0] for alias in sub.names}
                dead += [f"{name}: import {b}" for b in sorted(bound - used)]
    statements = [(name, stmt, _identifiers(stmt)) for name, tree in modules.items() for stmt in tree.body]
    for name, stmt, _ in statements:
        for private in _private_definitions(stmt):
            if not any(private in names for _, other, names in statements if other is not stmt):
                dead.append(f"{name}: {private}")
    assert dead == []


def test_quadrature_imports_nothing_from_scipy():
    # the engines are numpy only; the scipy importers stay few and named
    path = Path(quadrature.__file__)
    imported = []
    for sub in ast.walk(ast.parse(path.read_text())):
        if isinstance(sub, ast.Import):
            imported += [alias.name for alias in sub.names]
        elif isinstance(sub, ast.ImportFrom):
            imported.append(sub.module or "")
    assert [name for name in imported if name.partition(".")[0] == "scipy"] == []


def _callers(name: str) -> list[tuple[str, str]]:
    """(module, top-level definition) of every call the package makes to
    ``name``, bare or as an attribute, module by module."""
    src = Path(morseband.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and name in _identifiers(sub.func):
                    found.append((path.name, getattr(stmt, "name", "")))
    return found


def test_one_way_to_build_grid_axes_and_the_measure():
    # the strip grid's axes and its measure weight are built in one place
    # each, and every state, field and moment pass reads them from there
    assert _callers("measure_weight") == [("states.py", "_frame")]
    assert _callers("linspace") == [("quadrature.py", "integrate_semi_infinite_u"), ("states.py", "_signed_axes")]
