"""The benchmark's tracer wraps `marginline` entry points by name, so a
renamed kernel would silently drop its per-layer metrics, and the list
of its targets whose code is gone must name exactly those; and its
workloads read the program's artifacts themselves, so an artifact they
cannot read would fail only the benchmark. The modules are the API, so
a name an `__init__.py` binds beyond those the benchmark imports from it
is a second export list. An import of a package that pyproject.toml
does not list would fail only on a machine without it. And README's
table of command-line flags is written by hand, so a flag that moves
between commands, or an artifact its Outputs section does not name or
names after it is gone, would leave it stale. A config field that only
a method copying it elsewhere reads is a setting with two homes. A heavy scipy subpackage
loaded on import would cost every run about 30 MB, and a `BENCH_*.json`
that lacks a side or a metric cannot back the numbers quoted from it. A
public function, class, method or property that neither the package nor
the benchmark names is there only for the tests, whose own code lives in
`tests/`; so is a defaulted parameter that no call in the package or the
benchmark passes, a setting only the tests change."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

from marginline.cli import COMMANDS, FLAGS
from marginline.meshio import load_mesh
from marginline.pipeline import ARTIFACTS, PipelineConfig

ROOT = Path(__file__).resolve().parents[1]
# tracer targets whose code is gone; the tracer lists them until the
# benchmark changes
RETIRED = {
    # the labeled-PLY handoff between stages
    "marginline.pipeline.load_labeled_ply",
    # refine's PLY preview, which no stage read
    "marginline.pipeline.save_ply",
}
# public names of the package that only tests call
TEST_ONLY = {
    # the oracle of the BVH's closest-point queries
    "bvh.brute_force_closest",
    # the reader of the truth files that `generate_benchmark` writes
    "synthetic.load_truth_points",
    # the graph cut's objective, which criterion 05 checks the cut against
    "refine.cut_energy",
    # README's one-call entry point, which criteria 09 and 11 run
    "pipeline.run_pipeline",
}
# the names each `__init__.py` binds: the package none, and `segnet` the
# two that the benchmark's workloads import from it
PACKAGE_NAMES = {"marginline": set(), "marginline.segnet": {"NetworkParams", "forward"}}
# defaulted parameters that no package or benchmark call passes, kept on
# purpose
UNPASSED = {
    # the entry point the CLI tests drive in-process; the console script
    # reads sys.argv
    "cli.main(argv)",
    # criterion 05 varies λ through it, and the roadmap's crease term and
    # two-scale cut (items 11 and 17) keep one GraphCutConfig
    "refine.graph_cut_refine(config)",
    "refine.cut_energy(config)",
}


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_perfbench("tracer").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(tracer.missing) == RETIRED


def test_benchmark_workloads_score_correct_at_smoke_size(tmp_path):
    """Both workloads' own checks, at the smoke size: held-out Dice
    recomputed from the saved folds and feature caches, and every die's
    margin read back as a closed loop. The passes run traced, and the
    tracer sees the pipeline's one graph cut: inside extract, never in
    refine, on a band smaller than the full-resolution die."""
    workloads = _load_perfbench("workloads")
    tracer = _load_perfbench("tracer").Tracer()
    for cls in (workloads.TrainSynth20, workloads.InferHires):
        workload = cls(tmp_path / cls.name, 1, workloads.SMOKE)
        workload.setup()
        workload.prepare()
        tracer.install()
        try:
            workload.run(tracer)
        finally:
            tracer.uninstall()
        ok, metrics = workload.score()
        assert ok, (cls.name, workload.details)
        assert workload.failed == 0, (cls.name, workload.details)

    def ancestors(span):
        while span["parent"] is not None:
            span = tracer.spans[span["parent"]]
            yield span["name"]

    cuts = [s for s in tracer.spans if s["name"] == "refine.graph_cut"]
    assert len(cuts) == workloads.SMOKE.dies
    for cut in cuts:
        assert "pipeline.extract" in ancestors(cut)
        assert "pipeline.refine" not in ancestors(cut)
    die_faces = sum(load_mesh(case.die_path).n_faces for case in workload.manifest)
    assert 0 < tracer.counts["refine.faces"] < die_faces


def test_init_files_bind_only_the_declared_names():
    """The modules are the API: `marginline/__init__.py` holds its
    docstring alone, and each package binds no name, modules aside, but
    those of `PACKAGE_NAMES`."""
    tree = ast.parse((ROOT / "src" / "marginline" / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1
    for name, names in PACKAGE_NAMES.items():
        bound = {
            attr
            for attr, value in vars(importlib.import_module(name)).items()
            if not attr.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert bound == names, name


# about 30 MB of resident memory and half a second of start-up that the
# package used to pay for one spline and one rank correlation, and the
# graph library its graph cut used to run on
HEAVY_IMPORTS = ("scipy.stats", "scipy.interpolate", "scipy.optimize", "networkx")


def test_package_imports_only_its_declared_dependencies():
    """`src/marginline` imports the standard library, itself and the
    dependencies that pyproject.toml lists: numpy and scipy. Importing
    every module of the package loads none of the heavy scipy
    subpackages (tests use them as oracles), nor networkx."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)[1]
    declared = set(re.findall(r'"([A-Za-z0-9_.-]+)', block))
    assert declared == {"numpy", "scipy"}
    allowed = set(sys.stdlib_module_names) | declared | {"marginline"}
    foreign = {}
    for path in sorted((ROOT / "src" / "marginline").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in allowed:
                    foreign.setdefault(top, []).append(path.name)
    assert foreign == {}

    # a fresh interpreter: this one has the oracles loaded already
    package = ROOT / "src" / "marginline"
    modules = [
        ".".join(("marginline",) + path.relative_to(package).with_suffix("").parts)
        .removesuffix(".__init__")
        for path in sorted(package.rglob("*.py"))
    ]
    path = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {', '.join(modules)}\n"
         f"print([m for m in {HEAVY_IMPORTS!r} if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip() == "[]"


def test_bench_files_hold_machine_and_both_sides():
    """Every `BENCH_*.json` at the root parses and holds the machine facts
    and, for each run, a parent and a change result line that name every
    end-to-end metric of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in spec["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text())
        assert bench["machine"], path.name
        assert bench["runs"], path.name
        for run in bench["runs"]:
            for side in ("parent", "change"):
                assert names <= set(run[side]["metrics"]), (path.name, run, side)


def test_readme_flag_table_matches_the_parsers():
    """README's flag table lists each flag with its config field and the
    commands that take it, besides `pipeline` (which takes them all),
    exactly as `cli.FLAGS` and `cli.COMMANDS` declare them."""
    rows = re.findall(
        r"^\| `(--[a-z-]+)` \| `(\w+)` \| ([a-z, ]+) \|$",
        (ROOT / "README.md").read_text(),
        re.M,
    )
    table = {field: (flag, set(commands.split(", "))) for flag, field, commands in rows}
    assert len(table) == len(rows)
    stages = {c: taken for c, (_, _, taken) in COMMANDS.items() if c != "pipeline"}
    assert table == {
        field: (flag, {c for c, taken in stages.items() if field in taken})
        for field, (flag, _, _) in FLAGS.items()
    }


def test_readme_outputs_name_every_artifact():
    """README's Outputs section names, as `run/<dir>/<case><suffix>`,
    each per-case file that `pipeline.ARTIFACTS` declares and no other."""
    readme = (ROOT / "README.md").read_text()
    outputs = readme.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"run/\w+/<case>[^`\s]*", outputs))
    assert named == {
        f"run/{stage}/<case>{suffix}" for stage, suffix in ARTIFACTS.values()
    }


def _outside_the_tests():
    """(module, tree) of each file of `src/marginline`, `module` being its
    dotted name inside the package, then (None, tree) of each file of
    `perfbench`."""
    package = ROOT / "src" / "marginline"
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        yield module, ast.parse(path.read_text())
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        yield None, ast.parse(path.read_text())


def _public_functions(tree):
    """(qualified name, def, class or None) of each public top-level
    function of `tree`, and of each public method or property, and each
    `__init__`, of its public top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                    item.name == "__init__" or not item.name.startswith("_")
                ):
                    yield f"{node.name}.{item.name}", item, node


def test_every_public_definition_is_named_outside_the_tests():
    """Each public top-level function or class of `src/marginline` is
    named in the package or in `perfbench` (as a name, an attribute or an
    import outside an `__init__.py`, whose imports only re-export), and
    each public method or property of its public classes is named there
    as an attribute (`x.name`; a bare name may be a local, as `inverse`
    is in `meshio._weld`), but for `TEST_ONLY`."""
    named, attributes, top, methods = set(), set(), set(), set()
    for module, tree in _outside_the_tests():
        reexports = module is not None and module.rpartition(".")[2] == "__init__"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias) and not reexports:
                named.add(node.name.rpartition(".")[2])
        if module is not None:
            top |= {
                (module, node.name)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
            }
            methods |= {
                (module, qualname)
                for qualname, fn, cls in _public_functions(tree)
                if cls is not None and fn.name != "__init__"
            }
    unnamed = {
        f"{module}.{name}" for module, name in top if name not in named | attributes
    } | {
        f"{module}.{qualname}"
        for module, qualname in methods
        if qualname.rpartition(".")[2] not in attributes
    }
    assert unnamed == TEST_ONLY


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """Each defaulted parameter of a public function or method of
    `src/marginline` is passed, by keyword or by position, by some call
    in the package or in `perfbench` whose callee bears the function's
    name (the class's, for `__init__`), but for `UNPASSED`. A method's
    positions count from the argument after `self`."""
    calls, defaulted = {}, []
    for module, tree in _outside_the_tests():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
        if module is None:
            continue
        for qualname, fn, cls in _public_functions(tree):
            args = fn.args
            params = args.posonlyargs + args.args
            static = any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list
            )
            first = 1 if cls is not None and not static else 0  # after `self`
            callee = cls.name if fn.name == "__init__" else fn.name
            name = f"{module}.{qualname}"
            defaulted += [
                (name, callee, param.arg, position - first)
                for position, param in enumerate(params)
                if position >= len(params) - len(args.defaults)
            ] + [
                (name, callee, param.arg, None)
                for param, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
    unpassed = {
        f"{name}({arg})"
        for name, callee, arg, position in defaulted
        if not any(
            any(keyword.arg == arg for keyword in call.keywords)
            or (position is not None and len(call.args) > position)
            for call in calls.get(callee, ())
        )
    }
    assert unpassed == UNPASSED


def test_every_config_field_is_read_as_config_dot_field():
    """Each `PipelineConfig` field is read as `config.<field>` somewhere in
    `src/marginline`. A read through `self` inside the dataclass does not
    count, nor does a read in a module whose own class declares a field
    of that name (there `config` is that class, as in `refine`)."""
    read = set()
    for path in sorted((ROOT / "src" / "marginline").rglob("*.py")):
        tree = ast.parse(path.read_text())
        own = {
            node.target.id
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name != "PipelineConfig"
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        }
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "config"
            and isinstance(node.ctx, ast.Load)
            and node.attr not in own
        }
    assert set(PipelineConfig.__dataclass_fields__) - read == set()
