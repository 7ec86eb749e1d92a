"""The package runs on the standard library alone, as README and
pyproject.toml promise, ships the C sources of the fork-server shim and
the mutation kernel, they compile cleanly, and each agrees with the Python
it pairs with. Every name the benchmark in perfbench/ wraps or reads
exists."""

import ast
import importlib
import os
import re
import shutil
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY = ("numpy", "scipy", "hypothesis", "pytest")

# Every C source the package ships.
SOURCES = sorted(p.name for p in (ROOT / "src/truzz").glob("*.c"))

PERFBENCH = ROOT / "perfbench"

# (module, class or None, attribute) of each name perfbench's run.py and
# checks.py read off a truzz module or class, besides those in SPANNED.
PERFBENCH_READS = (
    ("truzz.engine", None, "execute_external"),
    ("truzz.engine", None, "replay"),
    ("truzz.target", None, "execute_synthetic"),
    ("truzz.target", "CompiledTarget", "execute"),
    ("truzz.mutation", None, "select_byte"),
)


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports the package from
    src/; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_runtime_imports_no_test_dependency():
    code = (
        "import sys, truzz, truzz.cli, truzz.engine, truzz.report, truzz.targets\n"
        f"print(*[m for m in {TEST_ONLY!r} if m in sys.modules])\n"
    )
    assert run_python(code).split() == []


def test_import_starts_no_process():
    """The shim is built, if ever, when an external target is made, and the
    mutation kernel on a campaign's first round; importing loads no ctypes."""
    code = (
        "import sys\n"
        "events = ('os.exec', 'os.fork', 'os.forkpty', 'os.posix_spawn', 'os.spawn',\n"
        "          'os.system', 'subprocess.Popen')\n"
        "seen = []\n"
        "sys.addaudithook(lambda event, args: event in events and seen.append(event))\n"
        "import truzz, truzz.cli, truzz.engine, truzz.report, truzz.target, truzz.targets\n"
        "print(*seen, 'ctypes' in sys.modules)\n"
    )
    assert run_python(code).split() == ["False"]


def test_shim_source_ships_as_package_data():
    sources = resources.files("truzz")
    assert b"__attribute__((constructor))" in sources.joinpath("forkserver.c").read_bytes()
    kernel = sources.joinpath("mutate.c").read_bytes()
    assert b"void truzz_mutate_round(" in kernel and b"size_t truzz_synthetic_round(" in kernel
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert set(pyproject["tool"]["setuptools"]["package-data"]["truzz"]) == set(SOURCES)


def test_shim_compiles_without_warnings(tmp_path):
    """A compiler that rejected a shipped source would leave every target
    spawned, or every child made in Python, with no error; so each must
    build warning-free with the flags the package builds it with, which
    include the optimisation some warnings need."""
    from truzz.native import CFLAGS, COMPILERS

    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        pytest.skip("no C compiler on this host")
    for source in SOURCES:
        command = [compiler, *CFLAGS, "-Wall", "-Wextra", "-Werror",
                   "-o", str(tmp_path / f"{source}.so"), str(ROOT / "src/truzz" / source)]
        built = subprocess.run(command, capture_output=True, text=True, timeout=120)
        assert built.returncode == 0, (source, built.stderr[-2000:])


def test_shim_and_target_agree_on_the_protocol():
    """The C and Python halves of the fork-server protocol state its
    descriptors, hello and kill request once each; they must agree."""
    from truzz import target

    source = resources.files("truzz").joinpath("forkserver.c").read_text(encoding="ascii")
    defines = {name: int(value, 0)
               for name, value in re.findall(r"^#define (\w+) (\w+)", source, re.M)}
    assert defines["CONTROL_FD"] == target._CONTROL_FD
    assert defines["STATUS_FD"] == target._STATUS_FD
    assert struct.pack("=I", defines["HELLO"]) == target._HELLO
    assert struct.pack("=I", defines["KILL"]) == target._KILL
    assert target._RUN != target._KILL
    assert f'"{os.fsdecode(target._FORK_SERVER_ENV)}"' in source


def test_kernel_and_mutate_agree_on_the_constants():
    """mutate.c restates mutate's operator constants, and the round code,
    check flags and empty slot of CompiledTarget; they must agree."""
    from truzz import mutation

    source = resources.files("truzz").joinpath("mutate.c").read_text(encoding="ascii")
    defines = {name: int(value, 0)
               for name, value in re.findall(r"^#define (\w+) (\w+)", source, re.M)}
    assert defines["ARITH_MAX"] == mutation.ARITH_MAX
    assert defines["RETRY_FACTOR"] == mutation.RETRY_FACTOR
    assert defines["OP_COUNT_MAX_EXP"] == mutation.OP_COUNT_MAX_EXP
    interesting = re.search(r"interesting\[\] = \{([^}]*)\}", source)[1]
    assert tuple(int(v, 0) for v in interesting.split(",")) == mutation.INTERESTING_BYTES

    from truzz import target

    assert defines["CODE_CHECKS"] == target.CODE_CHECKS
    assert defines["CODE_SHIFT"] == target.CODE_SHIFT
    assert (defines["TERMINAL"], defines["VALIDATION"]) == (target._TERMINAL, target._VALIDATION)
    assert defines["UNSEEN"] == target._UNSEEN


# Imported names each module keeps without using them: the engine's two
# are there for perfbench's tracer (tracing.SPANNED) to find.
UNUSED_IMPORTS_KEPT = {"engine": {"mutate", "draw_op_count"}}


def test_modules_use_every_name_they_import():
    """No linter comes with the package, so this finds an import a refactor
    left unused. ``__init__`` may re-export the names ``__all__`` lists."""
    unused = []
    for source in sorted((ROOT / "src/truzz").glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        imported, used = set(), set()
        kept = set(UNUSED_IMPORTS_KEPT.get(source.stem, ()))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and source.stem == "__init__" \
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                kept |= set(ast.literal_eval(node.value))
        unused += [f"{source.stem}.{name}" for name in sorted(imported - used - kept)]
    assert unused == []


def perfbench_names():
    """(module, class or None, attribute) of every truzz name perfbench
    wraps or reads: tracing.py's SPANNED, read from its source since
    importing it needs numpy and perfbench's own path; each ``from truzz.x
    import y`` in perfbench/; and PERFBENCH_READS."""
    names = list(PERFBENCH_READS)
    for source in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign) and source.name == "tracing.py" \
                    and [getattr(t, "id", None) for t in node.targets] == ["SPANNED"]:
                names += [(module, cls, attr)
                          for _, _, module, cls, attr in ast.literal_eval(node.value)]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("truzz."):
                names += [(node.module, None, alias.name) for alias in node.names]
    return names


def test_perfbench_entry_points_exist():
    """The benchmark wraps each SPANNED entry point where it is defined, and
    fails on one that is gone; this finds a refactor that drops or moves one
    with no compiler, before the compiler-gated selftest would."""
    names = perfbench_names()
    assert ("truzz.target", "CompiledTarget", "run") in names
    missing = []
    for module, cls, attr in names:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}:{cls + '.' if cls else ''}{attr}")
    assert missing == []


def test_campaign_keeps_the_cache_perfbench_reads(tmp_path):
    """A traced synthetic run reads its cache hit ratio from
    ``Campaign.compiled._cache``."""
    from truzz.engine import Campaign, CampaignConfig
    from truzz.targets import write_bundled

    spec_path, _ = write_bundled("magic64", tmp_path)
    campaign = Campaign(CampaignConfig(corpus_dir=str(tmp_path), target_spec=str(spec_path)))
    assert isinstance(campaign.compiled._cache, dict)
