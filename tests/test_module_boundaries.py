"""Only `simulate` builds a detection and draws counts, only `cli._emit`
writes files, tomography corrects readout through the noise-folded map
alone, the estimator imports no module that runs an experiment, and modules
keep to public names.

The swap onto the detected state |3> is part of the noise-folded measurement
map in `simulate`; any other module that calls `swap_pulse` builds a second
copy of the detection. Every count is drawn by `simulate` on its keyed
stream; a module that calls `binomial`, `multinomial` or `numpy.random`
itself is a second draw path. Tomography solves against that map under the
run's readout rates, which is its readout correction; an import of
`analysis` would bring in a second one. The estimator in `analysis` reads
count tables and a readout rate pair; a noise model, and the rates it
implies, are `simulate`'s business, so `analysis` imports none of
`simulate`, `tomography`, `cli`, `pulses` and `hv`. Every command returns
its files, output and exit code to `cli.main`, which writes the files
through `cli._emit`, prints the output and alone turns a refusal into exit
code 2 or 3; a file written anywhere else, or a command that prints or
picks a refusal's exit code itself, escapes that contract. A module that
reaches into a sibling's `_`-prefixed names depends on its internals. This
scans the code of the package for all seven. It also checks that the
package's check tolerances are named in `linalg` alone, that
`linalg.hermitian_eig` is its one eigendecomposition, so a density matrix
is decomposed once for its checks and its square root alike, that every
`functools` cache of the package is one of a named set, so a new cache
shows up as an edit of that set, and that the command path (`cli` and
`tomography`) reads a roster's counts as `simulate.draw_roster`'s (S, n, 3)
stack, never through `run_roster`'s per-table dicts.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import qutrit_ks

PACKAGE = Path(qutrit_ks.__file__).parent
SWAP_OWNERS = {"simulate", "pulses"}
DRAWS = {"binomial", "multinomial"}
# Sibling modules a module must not import at all.
FORBIDDEN_IMPORTS = {"tomography": {"analysis"},
                     "analysis": {"simulate", "tomography", "cli", "pulses", "hv"}}


def _violations(path: Path, siblings: set[str]) -> list[str]:
    tree = ast.parse(path.read_text())
    module = path.stem
    found = []
    # Names bound to sibling modules, e.g. `from . import simulate`.
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and not node.module for a in node.names if a.name in siblings}
    forbidden = FORBIDDEN_IMPORTS.get(module, set())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            found += [f"{module}:{node.lineno}: imports {name}"
                      for name in names if name in forbidden]
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found += [f"{module}:{node.lineno}: imports {node.module}.{a.name}"
                      for a in node.names if a.name.startswith("_") or (
                          a.name == "swap_pulse" and module not in SWAP_OWNERS)]
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")):
            found.append(f"{module}:{node.lineno}: uses {node.value.id}.{node.attr}")
        if module not in SWAP_OWNERS and (
                (isinstance(node, ast.Name) and node.id == "swap_pulse")
                or (isinstance(node, ast.Attribute) and node.attr == "swap_pulse")):
            found.append(f"{module}:{node.lineno}: uses swap_pulse")
        if module != "simulate" and (
                (isinstance(node, ast.Attribute) and node.attr in DRAWS)
                or (isinstance(node, ast.Attribute) and node.attr == "random"
                    and getattr(node.value, "id", None) in ("np", "numpy"))
                or (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.startswith("numpy.random"))
                or (isinstance(node, ast.Import)
                    and any(a.name.startswith("numpy.random") for a in node.names))):
            found.append(f"{module}:{node.lineno}: draws")
    return sorted(found, key=lambda v: int(v.split(":")[1]))


def find_violations(package: Path) -> list[str]:
    paths = sorted(package.glob("*.py"))
    siblings = {p.stem for p in paths}
    return [v for p in paths for v in _violations(p, siblings)]


def test_modules_keep_to_public_names_and_one_detection():
    assert find_violations(PACKAGE) == []


def test_scanner_flags_violations(tmp_path):
    (tmp_path / "simulate.py").write_text(
        "from .pulses import swap_pulse\ndef _prepare(): pass\n"
        "rng = np.random.Generator(np.random.Philox(0))\nrng.binomial(5, 0.5)\n")
    (tmp_path / "pulses.py").write_text("def swap_pulse(b): pass\n")
    (tmp_path / "tomography.py").write_text(
        "from .pulses import swap_pulse\nfrom .simulate import _prepare\n"
        "from .analysis import estimate\nfrom . import linalg, analysis\n")
    (tmp_path / "analysis.py").write_text(
        "from .model import CHI4\nfrom .simulate import readout_rates\n"
        "def estimate(ineq, freqs, rates): pass\n")
    (tmp_path / "cli.py").write_text(
        "from . import simulate, pulses, analysis\nsimulate._prepare()\n"
        "pulses.swap_pulse(1)\nrng.binomial(5, 0.5)\ndraw = rng.multinomial\n"
        "numpy.random.default_rng(1)\nfrom numpy.random import Philox\n"
        "import numpy.random\n")
    assert find_violations(tmp_path) == [
        "analysis:2: imports simulate",
        "cli:2: uses simulate._prepare",
        "cli:3: uses swap_pulse",
        "cli:4: draws",
        "cli:5: draws",
        "cli:6: draws",
        "cli:7: draws",
        "cli:8: draws",
        "tomography:1: imports pulses.swap_pulse",
        "tomography:2: imports simulate._prepare",
        "tomography:3: imports analysis",
        "tomography:4: imports analysis",
    ]


def find_unreferenced(package: Path, others: list[Path]) -> list[str]:
    """Public top-level functions and classes of the package that no code
    reads. A file reads a bare name, or `m.name` for `m` the package or one
    of its modules, under any alias; attributes of other objects (a method
    `self.reconstruct`) and the `__init__` re-exports do not count. `cli.main`
    dispatches the `cmd_*` commands by name, so they are exempt."""
    modules = [p for p in sorted(package.glob("*.py")) if p.stem != "__init__"]
    stems = {p.stem for p in modules}
    used = set()
    for path in modules + others:
        tree = ast.parse(path.read_text())
        owners = stems | {"qutrit_ks"} | {
            a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for a in node.names if a.name in stems and a.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and getattr(
                    node.value, "id", getattr(node.value, "attr", None)) in owners:
                used.add(node.attr)
    return [f"{path.stem}.{top.name}" for path in modules
            for top in ast.parse(path.read_text()).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and not top.name.startswith(("_", "cmd_")) and top.name not in used]


def test_every_public_name_has_a_caller():
    """Production code that only tests call is dead weight in the package."""
    bench = sorted((PACKAGE.parent.parent / "bench").glob("*.py"))
    assert bench and find_unreferenced(PACKAGE, bench) == []


def test_unreferenced_scanner_flags_test_only_names(tmp_path):
    pkg, bench = tmp_path / "qutrit_ks", tmp_path / "bench.py"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .tomography import reconstruct\n")
    (pkg / "tomography.py").write_text(
        "class Result: pass\ndef _solve(): return Result()\n"
        "def reconstruct(): return _solve()\ndef run(): return _solve()\n"
        "def fit(): pass\ndef plot(): pass\n")
    (pkg / "cli.py").write_text(
        "from . import tomography as tg\ndef main(): pass\n"
        "def cmd_run(): return tg.run()\n")
    bench.write_text(
        "import qutrit_ks\nfrom qutrit_ks import tomography\nqutrit_ks.cli.main()\n"
        "tomography.fit()\nclass Obs:\n    def reconstruct(self): self.plot()\n")
    assert find_unreferenced(pkg, [bench]) == ["tomography.reconstruct",
                                               "tomography.plot"]


# The command path reads a roster's counts as one stack; the per-table
# dicts are for the callers that still read tables, never for these modules.
ARRAY_READERS = {"cli", "tomography"}
TABLE_NAMES = {"run_roster", "CountTable"}


def find_table_users(package: Path) -> list[str]:
    """Names of `simulate.run_roster` or `simulate.CountTable` in `cli` or
    `tomography`, bare, as an attribute or imported."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem not in ARRAY_READERS:
            continue
        uses = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            else:
                names = [getattr(node, "id", getattr(node, "attr", None))]
            uses += [(node.lineno, f"{path.stem}:{node.lineno}: names {name}")
                     for name in names if name in TABLE_NAMES]
        found += [v for _, v in sorted(uses)]
    return found


def test_command_path_reads_count_arrays():
    assert find_table_users(PACKAGE) == []


def test_table_scanner_flags_table_users(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import simulate\ntables = simulate.run_roster(r, p, s, n, 0)\n"
        "def f(t: simulate.CountTable): pass\nrows = simulate.draw_roster(r, p, s, n, 0)\n")
    (tmp_path / "tomography.py").write_text(
        "from .simulate import CountTable, draw_roster\nrun_roster = draw_roster\n")
    (tmp_path / "analysis.py").write_text("def f(t: CountTable): return run_roster\n")
    assert find_table_users(tmp_path) == [
        "cli:2: names run_roster",
        "cli:3: names CountTable",
        "tomography:1: names CountTable",
        "tomography:2: names run_roster",
    ]


WRITERS = {"open", "write_text", "mkdir"}


def find_writers(package: Path) -> list[str]:
    """Calls that open, write or create a file anywhere but in `cli._emit`."""
    found = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if path.stem == "cli" and getattr(top, "name", None) == "_emit":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in WRITERS:
                        found.append(f"{path.stem}:{node.lineno}: calls {name}")
    return found


def test_only_emit_writes_files():
    assert find_writers(PACKAGE) == []


def test_writer_scanner_flags_writes(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def _emit(path):\n    path.parent.mkdir()\n    path.write_text('')\n"
        "def _write(path):\n    path.write_text('')\n")
    (tmp_path / "pulses.py").write_text(
        "class S:\n    def save(self, p):\n        return open(p, 'w')\n")
    assert find_writers(tmp_path) == ["cli:5: calls write_text", "pulses:3: calls open"]


STREAMS = {"stdout", "stderr"}
MAIN_ONLY = {"print", "EXIT_CONFIG", "EXIT_IO"}


def find_refusals_outside_main(package: Path) -> list[str]:
    """Uses in `cli.py`, outside `main`, of `sys.stdout`, `sys.stderr`,
    `print`, `EXIT_CONFIG` or `EXIT_IO`; binding a name does not count, nor
    does another object's attribute of that name (an estimate's `stderr`)."""
    found = []
    for top in ast.parse((package / "cli.py").read_text()).body:
        if getattr(top, "name", None) == "main":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module == "sys":
                found += [(node.lineno, f"cli:{node.lineno}: imports sys.{a.name}")
                          for a in node.names if a.name in STREAMS]
            elif (isinstance(node, ast.Attribute) and node.attr in STREAMS
                    and getattr(node.value, "id", None) == "sys"):
                found.append((node.lineno, f"cli:{node.lineno}: uses sys.{node.attr}"))
            elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in MAIN_ONLY):
                found.append((node.lineno, f"cli:{node.lineno}: uses {node.id}"))
    return [v for _, v in sorted(found)]


def test_only_main_prints_and_picks_refusal_codes():
    assert find_refusals_outside_main(PACKAGE) == []


def test_refusal_scanner_flags_output_outside_main(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import sys\nfrom sys import stderr\nEXIT_CONFIG, EXIT_IO = 2, 3\n"
        "def cmd_run(args):\n    sys.stderr.write('refused')\n    return EXIT_IO\n"
        "def _emit(files):\n    print(files)\n    sys.stdout.write('')\n"
        "    est.stderr\n    return {'code': EXIT_CONFIG}\n"
        "def main():\n    sys.stderr.write('')\n    return EXIT_CONFIG\n"
        "if __name__ == '__main__':\n    sys.exit(main())\n")
    assert find_refusals_outside_main(tmp_path) == [
        "cli:2: imports sys.stderr",
        "cli:5: uses sys.stderr",
        "cli:6: uses EXIT_IO",
        "cli:8: uses print",
        "cli:9: uses sys.stdout",
        "cli:11: uses EXIT_CONFIG",
    ]


TOLERANCE = re.compile(r"^ATOL_|_FLOOR$")


def find_tolerances(package: Path) -> list[str]:
    """Module-level names of a check tolerance (`ATOL_*`, `*_FLOOR`) bound
    anywhere but in `linalg`, where the package's tolerances are named."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "linalg":
            continue
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.Assign):
                targets = top.targets
            elif isinstance(top, (ast.AnnAssign, ast.AugAssign)):
                targets = [top.target]
            else:
                continue
            found += [f"{path.stem}:{top.lineno}: binds {node.id}"
                      for target in targets for node in ast.walk(target)
                      if isinstance(node, ast.Name) and TOLERANCE.search(node.id)]
    return found


def test_only_linalg_names_tolerances():
    assert find_tolerances(PACKAGE) == []


def test_tolerance_scanner_flags_module_level_tolerances(tmp_path):
    (tmp_path / "linalg.py").write_text("ATOL_UNITARY = 1e-10\nEIGVAL_FLOOR = -1e-9\n")
    (tmp_path / "pulses.py").write_text(
        "from .linalg import ATOL_UNITARY\nATOL_OVERLAP = 1e-9\n"
        "def check():\n    ATOL_LOCAL = 1e-3\n    return ATOL_LOCAL\n")
    (tmp_path / "simulate.py").write_text(
        "PROB_FLOOR: float = 1e-12\nA, ATOL_PAIR = 1, 2e-9\nATOL_PAIR += 1\n"
        "FLOORING = 3\n")
    assert find_tolerances(tmp_path) == [
        "pulses:2: binds ATOL_OVERLAP",
        "simulate:1: binds PROB_FLOOR",
        "simulate:2: binds ATOL_PAIR",
        "simulate:3: binds ATOL_PAIR",
    ]


EIGEN = {"eigh", "eigvalsh", "eig", "eigvals"}


def find_eigendecompositions(package: Path) -> list[str]:
    """Uses of numpy's eigendecompositions, by attribute or by import, but for
    `eigh` in `linalg.hermitian_eig`."""
    found = []
    for path in sorted(package.glob("*.py")):
        uses = []
        for top in ast.parse(path.read_text()).body:
            owner = path.stem == "linalg" and getattr(top, "name", None) == "hermitian_eig"
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in EIGEN and not (
                        owner and node.attr == "eigh"):
                    uses.append((node.lineno, node.col_offset,
                                 f"{path.stem}:{node.lineno}: calls {node.attr}"))
                elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                    uses += [(node.lineno, 0, f"{path.stem}:{node.lineno}: imports {a.name}")
                             for a in node.names if a.name in EIGEN]
        found += [v for *_, v in sorted(uses)]
    return found


def test_hermitian_eig_is_the_one_eigendecomposition():
    assert find_eigendecompositions(PACKAGE) == []


def test_eigendecomposition_scanner_flags_other_call_sites(tmp_path):
    (tmp_path / "linalg.py").write_text(
        "import numpy as np\ndef hermitian_eig(m):\n    return np.linalg.eigh(m)\n"
        "def check(m):\n    return np.linalg.eigvalsh(m).min(), np.linalg.eigh(m)\n")
    (tmp_path / "tomography.py").write_text(
        "from numpy.linalg import eig, svd\nw = numpy.linalg.eigvals(m)\n"
        "linalg.hermitian_eig(m)\n")
    assert find_eigendecompositions(tmp_path) == [
        "linalg:5: calls eigvalsh",
        "linalg:5: calls eigh",
        "tomography:1: imports eig",
        "tomography:2: calls eigvals",
    ]


def test_package_import_leaves_numpy_random_unloaded():
    """numpy loads `numpy.random` lazily; importing it with the package would
    add its load time and memory to every command, including `verify`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])])
    code = ("import sys, qutrit_ks, qutrit_ks.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


CACHE_NAMES = {"cache", "lru_cache", "cached_property"}
# Every `functools` cache of the package. `simulate._plan_effects` is the one
# cache of the measurement map; the laws and the tomography response map are
# formed from it on every call.
CACHES = [
    "analysis._parts",
    "analysis.affine_map",
    "cli.build_parser",
    "hv._coefficients",
    "hv._penalty",
    "hv._table",
    "model.Inequality._hash",
    "model.KSModel.chi13",
    "model.KSModel.rules",
    "model.build_model",
    "pulses.MeasurementSetting._content_hash",
    "pulses._settings",
    "pulses.exact_pulse_matrix",
    "simulate.SubExperiment.key",
    "simulate._default_states",
    "simulate._plan_effects",
]


def find_caches(package: Path) -> list[str]:
    """Every use of `functools.cache`, `lru_cache` and `cached_property`,
    by attribute or by imported name: a decorated function or method as
    `module.qualname`, any other use, such as a cache built in a call, as
    `module:line`."""
    found = []
    for path in sorted(package.glob("*.py")):
        decorators = set()

        def decorated(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = getattr(child, "name", None)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    for d in child.decorator_list:
                        target = d.func if isinstance(d, ast.Call) else d
                        if getattr(target, "id", getattr(target, "attr", None)) in CACHE_NAMES:
                            found.append(f"{prefix}.{name}")
                            decorators.add(target)
                    decorated(child, f"{prefix}.{name}")
                else:
                    decorated(child, prefix)

        tree = ast.parse(path.read_text())
        decorated(tree, path.stem)
        found += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if node not in decorators and getattr(
                      node, "id", getattr(node, "attr", None)) in CACHE_NAMES
                  and isinstance(node, (ast.Name, ast.Attribute))]
    return sorted(found)


def test_every_cache_is_named():
    assert find_caches(PACKAGE) == CACHES


def test_cache_scanner_finds_every_cache(tmp_path):
    (tmp_path / "simulate.py").write_text(
        "import functools\nfrom functools import cache, cached_property\n"
        "class Plan:\n    @functools.cached_property\n    def key(self): pass\n"
        "    @cached_property\n    def rows(self): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef _effects(): pass\n"
        "@cache\ndef _states():\n"
        "    return functools.lru_cache(maxsize=32)(lambda key: key)\n"
        "memo = cache(len)\n")
    (tmp_path / "linalg.py").write_text("import functools\ndef adjoint(m): pass\n")
    assert find_caches(tmp_path) == [
        "simulate.Plan.key", "simulate.Plan.rows", "simulate._effects",
        "simulate._states", "simulate:12", "simulate:13"]
