import ast
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                    for dep in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src" / "gswalk").glob("*.py")):
        imported |= imported_top_level(path)
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "gswalk"}
    assert third_party == declared == {"numpy"}


def calls_outside(names: set[str], allowed: set[str], reads: bool = False) -> list[str]:
    """``module:line`` of each call to one of ``names`` (as a bare name or an
    attribute) in ``src/gswalk`` that no function named in ``allowed`` encloses;
    with ``reads``, of each use of one of ``names``, called or not, other
    than the assignment that defines it."""
    found = []

    def visit(node, path, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        used = node if reads else getattr(node, "func", None) if isinstance(node, ast.Call) else None
        if isinstance(used, (ast.Name, ast.Attribute)) and not isinstance(used.ctx, ast.Store):
            name = used.id if isinstance(used, ast.Name) else used.attr
            if name in names and func not in allowed:
                found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, func)

    for path in sorted((ROOT / "src" / "gswalk").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return found


def test_seeded_streams_come_from_stream_rng():
    assert calls_outside({"SeedSequence", "default_rng"}, {"stream_rng"}) == []


def test_bulk_stream_draws_have_one_caller():
    assert calls_outside({"_stream_uniforms"}, {"_run_range"}) == []


def test_files_go_through_the_text_helpers():
    assert calls_outside({"open"}, {"read_text", "write_text"}) == []


def test_directions_have_one_solve_path():
    assert calls_outside({"lstsq", "eigh"}, {"min_norm_directions", "_gram_solve"}) == []


def test_decompositions_have_one_builder():
    # __getitem__ only takes one sequence's row of a built stack
    assert calls_outside({"OrthoDecomposition"}, {"decompose_stack", "__getitem__"}) == []


def test_zero_residual_rule_has_one_place():
    assert calls_outside({"ZERO_RESIDUAL_RTOL"}, {"decompose_stack"}, reads=True) == []


def test_grid_bands_have_one_loop():
    assert calls_outside({"BAND_FLOATS"}, {"_band_mins"}, reads=True) == []


def test_grid_axes_have_one_rule():
    # every inequality axis is mirrored where its domain is symmetric
    found = calls_outside({"linspace"}, {"_grid"})
    assert [at for at in found if at.startswith("inequalities.py:")] == []


def test_step_records_have_one_builder():
    assert calls_outside({"StepRecord"}, {"walk_path", "apply_step"}) == []


def test_quadrature_rule_has_one_builder():
    assert calls_outside({"leggauss"}, {"_gauss_legendre"}) == []


def test_equal_rows_have_one_rule():
    assert calls_outside({"unique"}, {"distinct_rows"}) == []


def test_run_record_format_has_one_place():
    assert calls_outside({"CSV_HEADER"}, {"stats_to_csv", "parse_csv"}, reads=True) == []


@pytest.mark.parametrize("name", ["sched_getaffinity", "cpu_count"])
def test_core_count_has_one_rule(name):
    assert calls_outside({name}, {"usable_cores"}, reads=True) == []


def module_attributes(path: Path, package: str) -> set[tuple[str, str]]:
    """(submodule, name) of each ``<submodule>.<name>`` that a script reads
    on a submodule it imports with ``from <package> import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == package
               for alias in node.names}
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_bench_reads_only_names_the_package_has():
    # tier-1 runs no bench code, so a dropped name would break only the bench
    used = module_attributes(ROOT / "bench" / "workloads.py", "gswalk")
    assert {("walk", "apply_step"), ("ortho", "decompose")} <= used
    missing = [f"{module}.{name}" for module, name in sorted(used)
               if not hasattr(import_module(f"gswalk.{module}"), name)]
    assert missing == []


def names_read(tree: ast.AST) -> set[str]:
    """Names and attributes that a syntax tree loads."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_definition_is_used_exported_or_benched():
    # a name that only the tests read belongs in tests/helpers.py; this
    # holds for top-level definitions and for the methods and properties
    # of the package's classes
    import gswalk
    defined, members, read = [], [], set()
    for path in sorted((ROOT / "src" / "gswalk").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, name))
            if isinstance(stmt, ast.ClassDef):
                members += [(path.stem, member.name) for member in stmt.body
                            if isinstance(member, ast.FunctionDef)]
            read |= names_read(stmt) - {name}     # a definition's reads of itself
    bench = ROOT / "bench" / "workloads.py"
    benched = module_attributes(bench, "gswalk")
    # the bench reads a member off an object it holds
    bench_reads = names_read(ast.parse(bench.read_text(encoding="utf-8")))
    benched |= {member for member in members if member[1] in bench_reads}
    defined += members
    unused = [f"{module}.{name}" for module, name in defined
              if not (name.startswith("__") and name.endswith("__"))
              and name not in read and name not in gswalk.__all__
              and (module, name) not in benched]
    assert unused == []


def modules_after(code: str) -> set[str]:
    """Modules a fresh interpreter has loaded once ``code`` has run."""
    script = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); {code}; "
              "print(); print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    loaded = modules_after("import gswalk")
    assert "gswalk" in loaded
    assert not {"gswalk.harness", "concurrent.futures"} & loaded


def test_harness_imports_the_pool_only_to_start_one():
    assert "concurrent.futures" not in modules_after("import gswalk.harness")


def test_inequalities_import_the_pool_only_to_start_one():
    assert "concurrent.futures" not in modules_after("import gswalk.inequalities")


def test_smoothed_import_leaves_the_walk_stack_unloaded():
    loaded = modules_after("import gswalk.smoothed")
    assert "gswalk.smoothed" in loaded
    assert not {"gswalk.walk", "gswalk.ortho", "gswalk.enumeration"} & loaded


def test_command_loads_only_what_it_runs():
    loaded = modules_after(
        "from gswalk.cli import main; "
        "main(['check-ineq', '--which', 'hoeffding', '--grid-step', '0.1'])")
    assert "gswalk.inequalities" in loaded
    assert not {"gswalk.enumeration", "gswalk.harness", "gswalk.smoothed"} & loaded


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # a np.unique call without index outputs imports numpy.ma (about 20 ms)
    path = str(tmp_path / "instance.txt")
    loaded = modules_after(
        "from gswalk.cli import main; "
        "main(['gen', '--kind', 'random_unit_sphere', '--d', '3', '--n', '7', "
        f"'--seed', '1', '--out', {path!r}]); "
        f"main(['oracle', '--instance', {path!r}, '--check', 'all']); "
        f"main(['trace', '--instance', {path!r}]); "
        f"main(['mc', '--instance', {path!r}, '--runs', '20', '--threads', '1', "
        f"'--out', {str(tmp_path / 'runs.csv')!r}, '--format', 'csv']); "
        "main(['check-ineq', '--which', 'lemma1', '--grid-step', '0.1'])")
    assert "gswalk.enumeration" in loaded and "numpy.ma" not in loaded


def test_every_public_name_resolves():
    import gswalk
    assert len(set(gswalk.__all__)) == len(gswalk.__all__)
    for name in gswalk.__all__:
        module = import_module(f"gswalk.{gswalk._MODULE_OF[name]}")
        assert getattr(gswalk, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        gswalk.no_such_name
