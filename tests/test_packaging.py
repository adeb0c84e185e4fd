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
    assert calls_outside({"lstsq", "eigh"}, {"min_norm_coefficients", "_gram_solve"}) == []


def test_chunk_size_has_one_rule():
    assert calls_outside({"CHUNK_FLOATS"}, {"_chunk_runs"}, reads=True) == []


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


PRODUCT_CALLS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}


def matrix_products() -> set[str]:
    """Each function in ``src/gswalk`` with a product (``@`` or a numpy
    product call) whose operand reads ``.matrix``, directly or through a
    name the function assigned from an expression that reads it."""
    def reads_matrix(node, names):
        return any(isinstance(sub, ast.Attribute) and sub.attr == "matrix"
                   or isinstance(sub, ast.Name) and sub.id in names for sub in ast.walk(node))

    found = set()
    for path in sorted((ROOT / "src" / "gswalk").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            names = {target.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                     and reads_matrix(node.value, set())
                     for target in node.targets if isinstance(target, ast.Name)}
            for node in ast.walk(func):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                    operands = [node.left, node.right]
                elif isinstance(node, ast.Call) and getattr(
                        node.func, "attr", getattr(node.func, "id", None)) in PRODUCT_CALLS:
                    operands = node.args
                else:
                    continue
                if any(reads_matrix(operand, names) for operand in operands):
                    found.add(f"{path.stem}.{func.name}")
    return found


def test_outcome_images_have_one_rule():
    sign_rows = {
        "instances.images",                         # M x of each outcome x: the rule
        "enumeration.brute_force_min_discrepancy",  # one GEMM over all 2^n sign vectors
        "smoothed.inner_hit_probability",           # M + R is no Instance; thresholded
    }
    # these multiply M's columns by walk or basis directions, not by sign rows
    directions = {"ortho.decompose_stack", "ortho.variance_proxy_batch",
                  "ortho.direction_expansion_residual"}
    assert matrix_products() == sign_rows | directions


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


def test_inequalities_import_the_pool_only_to_start_one():
    assert "concurrent.futures" not in modules_after("import gswalk.inequalities")


def test_lemma1_on_one_core_starts_no_pool():
    # one usable core sweeps its single band on the calling thread
    loaded = modules_after(
        "from gswalk import inequalities; inequalities.usable_cores = lambda: 1; "
        "from gswalk.cli import main; "
        "main(['check-ineq', '--which', 'lemma1', '--grid-step', '0.1'])")
    assert "gswalk.inequalities" in loaded and "concurrent.futures" not in loaded


def test_smoothed_import_leaves_the_walk_stack_unloaded():
    loaded = modules_after("import gswalk.smoothed")
    assert "gswalk.smoothed" in loaded
    assert not {"gswalk.walk", "gswalk.ortho", "gswalk.enumeration"} & loaded


# The gswalk modules each benchmarked command loads.  Without __pycache__, as
# under PYTHONDONTWRITEBYTECODE=1, a process compiles each of them from source.
BASE = {"gswalk", "gswalk.cli", "gswalk.exceptions", "gswalk.instances"}
WALK_STACK = BASE | {"gswalk.walk", "gswalk.ortho", "gswalk.enumeration"}
COMMAND_MODULES = {
    "mc": (["mc", "--instance", "{instance}", "--runs", "20", "--threads", "1",
            "--out", "{tmp}/runs.json"], WALK_STACK | {"gswalk.harness", "gswalk.inequalities"}),
    # past n = 20 the report has no brute-force optimum to import
    "mc-wide": (["mc", "--instance", "{instance}", "--runs", "20", "--threads", "1",
                 "--out", "{tmp}/runs.json"],
                WALK_STACK - {"gswalk.enumeration"} | {"gswalk.harness", "gswalk.inequalities"}),
    "oracle": (["oracle", "--instance", "{instance}", "--check", "all"], WALK_STACK),
    "smoothed": (["smoothed", "--instance", "{instance}", "--r-trials", "5"],
                 WALK_STACK | {"gswalk.smoothed"}),
    **{which: (["check-ineq", "--which", which, "--grid-step", "0.1"],
               BASE | {"gswalk.inequalities"}) for which in ("lemma1", "hoeffding", "cosh")},
    "comparison": (["check-ineq", "--which", "comparison", "--trials", "5"],
                   BASE | {"gswalk.smoothed"}),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_command_loads_only_what_it_runs(tmp_path, command):
    from gswalk.instances import generate_instance, save_instance
    instance = tmp_path / "instance.txt"
    save_instance(generate_instance("random_unit_sphere", 3, 24 if command == "mc-wide" else 7, 1),
                  instance)
    argv, modules = COMMAND_MODULES[command]
    argv = [arg.format(instance=instance, tmp=tmp_path) for arg in argv]
    loaded = modules_after(f"from gswalk.cli import main; main({argv!r})")
    assert {name for name in loaded if name.split(".")[0] == "gswalk"} == modules
    if command.startswith("mc"):    # harness forks its workers and imports no pool
        assert "concurrent.futures" not in loaded


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mc_leaves_numpy_random_unloaded(tmp_path, fmt):
    # mc draws through harness._stream_uniforms; numpy.random costs about 6 ms to import
    from gswalk.instances import generate_instance, save_instance
    path = str(tmp_path / "instance.txt")
    save_instance(generate_instance("random_unit_sphere", 4, 9, 1), path)
    loaded = modules_after(
        "from gswalk.cli import main; "
        f"main(['mc', '--instance', {path!r}, '--runs', '20', '--threads', '1', "
        f"'--out', {str(tmp_path / 'runs')!r}, '--format', {fmt!r}])")
    assert "gswalk.harness" in loaded and "numpy.random" not in loaded


def test_mc_split_leaves_the_process_pool_unloaded(tmp_path):
    # mc forks its workers, on two usable cores whatever the host has, here
    # one child for the second of two chunks of 20 runs; importing
    # concurrent.futures.process and multiprocessing cost about 36 ms
    from gswalk.instances import generate_instance, save_instance
    path = str(tmp_path / "instance.txt")
    save_instance(generate_instance("random_unit_sphere", 4, 9, 1), path)
    loaded = modules_after(
        "import os; from gswalk import harness; harness.usable_cores = lambda: 2; "
        "harness.CHUNK_FLOATS = 20 * 9 * 4; forks, fork = [], os.fork; "
        "os.fork = lambda: forks.append(1) or fork(); "
        "from gswalk.cli import main; "
        f"main(['mc', '--instance', {path!r}, '--runs', '40', '--threads', '2', "
        f"'--out', {str(tmp_path / 'runs.csv')!r}, '--format', 'csv']); "
        "assert forks == [1], forks")
    assert "gswalk.harness" in loaded
    assert not {"concurrent.futures", "multiprocessing"} & loaded


def test_every_public_name_resolves():
    import gswalk
    assert len(set(gswalk.__all__)) == len(gswalk.__all__)
    for name in gswalk.__all__:
        module = import_module(f"gswalk.{gswalk._MODULE_OF[name]}")
        assert getattr(gswalk, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        gswalk.no_such_name
