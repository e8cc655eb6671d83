"""What each oracle may read, as one static rule.

The closed forms are trusted because two oracles that do not share their
numerics agree with them: the defining-integral quadrature
(``secnet.quadrature``) and the network simulation (``secnet.montecarlo``).
An ``ast`` walk checks every ``fading.*``/``stochgeo.*`` attribute each
oracle reads against its allow-list, each entry with its reason, and
checks that neither oracle names a closed form or the Fox H route.

Two layers stay shared with the closed forms, on purpose: the mean measure
(``NetworkGeometry.pathloss_rate``/``composite_rate``), which the quadrature
integrates against and the simulator reaches only through ``window_radius``,
and the branch-sum fit (``NetworkGeometry.fading``), which every route uses.

The Mellin test (``tests/test_mellin.py``) derives each instance's
transform from the laws a second time, so it may read from ``metrics`` only
the instances and the scenario type, never the algebra that composes them.
"""

import ast
import inspect
import pathlib

import pytest

from secnet import metrics, montecarlo, quadrature

# oracle -> {attribute of fading or stochgeo: why the oracle may read it}
ALLOWED = {
    "quadrature": {
        "cdf_power_gain": "the alpha-mu power gain's CDF: a regularized gamma function",
        "pdf_power_gain": "the alpha-mu power gain's density: a gamma density",
        "pdf_kth_distance_pow": "the k-th point's law under mean measure rate * y^delta: a gamma density",
        "AlphaMuParams": "the nearest law's fading, as an annotation",
    },
    "simulator": {
        "sample_power_gain": "draws the gain of the k-th nearest point",
        "power_gain_of_shape": "maps the selected gamma shape to its power gain",
        "min_count_mean": "sizes the best sampler's inner ball from a Poisson tail bound",
        "SIDES": "the side names; their positions key the streams",
        "NetworkGeometry": "the samplers' geometry, as an annotation",
        "window_radius": "sizes the window only; it reads the mean measure, which the closed forms share",
    },
}
# names no oracle may read: every closed form and the Fox H route
CLOSED_FORMS = (set(metrics.__all__) - {"ScenarioConfig", "CASES"}) | {"fox_h", "FoxHParams", "_FOX_H", "_closed_form"}
# names the simulator may not read: the mean measure, the other oracle
SIMULATOR_FORBIDS = {"pathloss_rate", "composite_rate", "quadrature"}
# relative imports the quadrature may make: a module, or the names it may take from one
QUADRATURE_IMPORTS = {"fading": None, "stochgeo": None, "metrics": {"ScenarioConfig"},
                      "specfun": {"ConvergenceError"}}
# the registry's nodes in montecarlo: they join the routes, so they name all three
REGISTRY = {"Metric", "METRICS", "integrate_defining", "_quad_capacity"}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.name if isinstance(node, ast.alias) else None


def _imports(tree: ast.AST) -> list[str]:
    """The quadrature's relative imports that ``QUADRATURE_IMPORTS`` does not allow."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        for alias in node.names:
            module, name = (alias.name, None) if node.module is None else (node.module, alias.name)
            allowed = QUADRATURE_IMPORTS.get(module, set())
            if not (allowed is None if name is None else name in (allowed or ())):
                found.append(f"line {node.lineno}: from .{node.module or ''} import {alias.name}")
    return found


def violations(trees: list[ast.AST], oracle: str) -> list[str]:
    """Every read in ``trees`` that the rule for ``oracle`` forbids."""
    forbidden = CLOSED_FORMS | (SIMULATOR_FORBIDS if oracle == "simulator" else set())
    found = []
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("fading", "stochgeo") and node.attr not in ALLOWED[oracle]):
                found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
            elif _name(node) in forbidden:
                found.append(f"line {node.lineno}: {_name(node)}")
        if oracle == "quadrature":
            found += _imports(tree)
    return found


def _defines(node: ast.AST) -> set[str]:
    """The names a top-level node binds, but imports."""
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {name for name in (getattr(node, "name", None), *(getattr(t, "id", None) for t in targets)) if name}


def _simulator_nodes(tree: ast.Module) -> list[ast.AST]:
    """montecarlo's top-level nodes but the registry and the imports."""
    return [node for node in tree.body
            if not isinstance(node, (ast.Import, ast.ImportFrom)) and not _defines(node) & REGISTRY]


def _tree(module) -> ast.Module:
    return ast.parse(inspect.getsource(module))


def _reads(trees: list[ast.AST]) -> set[str]:
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("fading", "stochgeo")}


ORACLES = {"quadrature": lambda: [_tree(quadrature)], "simulator": lambda: _simulator_nodes(_tree(montecarlo))}


@pytest.mark.parametrize("oracle", ORACLES)
def test_each_oracle_reads_only_its_allow_list(oracle):
    trees = ORACLES[oracle]()
    assert violations(trees, oracle) == []
    # every allowed name is read: the list is the oracle's reads, not a superset
    assert _reads(trees) == set(ALLOWED[oracle])


def test_the_registry_is_all_the_simulator_walk_leaves_out():
    tree = _tree(montecarlo)
    walked = _simulator_nodes(tree)
    left_out = [node for node in tree.body if node not in walked]
    assert set().union(*map(_defines, left_out)) == REGISTRY
    assert all(isinstance(node, (ast.Import, ast.ImportFrom)) or _defines(node) & REGISTRY for node in left_out)
    assert {"_stream", "_SAMPLERS", "_side_law", "_once"} <= set().union(*map(_defines, walked))


@pytest.mark.parametrize("oracle, snippet, reported", [
    ("simulator", "def _sample(cfg):\n    return metrics.cop_nearest(cfg)\n", ["cop_nearest"]),
    ("simulator", "def _radius(geo):\n    return geo.composite_rate('legitimate')\n", ["composite_rate"]),
    ("simulator", "def _draw(cfg, z):\n    return fading.cdf_power_gain(cfg.fading_b, z)\n",
     ["fading.cdf_power_gain"]),
    ("simulator", "def _cap(cfg):\n    return quadrature.capacity(cfg, 'legitimate')\n", ["quadrature"]),
    ("quadrature", "def _law(cfg):\n    return specfun.fox_h(cfg, 1.0)\n", ["fox_h"]),
    ("quadrature", "def _radius(cfg):\n    return stochgeo.window_radius(cfg.geometry, 'legitimate', 1)\n",
     ["stochgeo.window_radius"]),
    ("quadrature", "from .fading import cdf_power_gain\n", ["from .fading import cdf_power_gain"]),
    ("quadrature", "from .montecarlo import _once\n", ["from .montecarlo import _once"]),
    ("quadrature", "from .metrics import pnz_bb\n", ["pnz_bb", "from .metrics import pnz_bb"]),
    ("quadrature", "from . import metrics\n", ["from . import metrics"]),
])
def test_planted_reads_are_reported(oracle, snippet, reported):
    found = violations([ast.parse(snippet)], oracle)
    assert [line.split(": ", 1)[1] for line in found] == reported


# what tests/test_mellin.py may read from metrics: the instances it checks and
# the scenario type it builds them on
MELLIN_READS = {"_FOX_H", "ScenarioConfig"}


def metrics_reads(tree: ast.AST) -> tuple[set[str], list[str]]:
    """The names ``tree`` reads from metrics, and every read outside
    ``MELLIN_READS``: an attribute of the module, a name imported from it,
    or the module used other than through an attribute."""
    aliases, reads, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("secnet", "secnet.metrics"):
            for alias in node.names:
                if node.module == "secnet.metrics":
                    reads.add(alias.name)
                    if alias.name not in MELLIN_READS:
                        found.append(f"line {node.lineno}: from secnet.metrics import {alias.name}")
                elif alias.name == "metrics":
                    aliases.add(alias.asname or "metrics")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "secnet.metrics" and alias.asname:
                    aliases.add(alias.asname)
                elif alias.name.startswith("secnet.metrics"):
                    found.append(f"line {node.lineno}: import {alias.name}")
    attribute_values = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            attribute_values.add(id(node.value))
            reads.add(node.attr)
            if node.attr not in MELLIN_READS:
                found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    found += [f"line {node.lineno}: {node.id}" for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id in aliases and id(node) not in attribute_values]
    return reads, found


def test_the_mellin_test_reads_only_the_instances_from_metrics():
    tree = ast.parse(pathlib.Path(__file__).with_name("test_mellin.py").read_text())
    reads, found = metrics_reads(tree)
    assert found == []
    assert reads == MELLIN_READS


@pytest.mark.parametrize("snippet, reported", [
    ("from secnet import metrics\nmetrics._nearest(cfg, 'legitimate', 1)\n", ["metrics._nearest"]),
    ("from secnet import metrics as m\nm._params(())\n", ["m._params"]),
    ("from secnet.metrics import _product, ScenarioConfig\n", ["from secnet.metrics import _product"]),
    ("import secnet.metrics as m\nm._FOX_H['pnz_nn']\n", []),
    ("import secnet.metrics\n", ["import secnet.metrics"]),
    ("from secnet import metrics\ngetattr(metrics, '_at')\n", ["metrics"]),
])
def test_planted_mellin_reads_are_reported(snippet, reported):
    _, found = metrics_reads(ast.parse(snippet))
    assert [line.split(": ", 1)[1] for line in found] == reported
